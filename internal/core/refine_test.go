package core

import (
	"math"
	"testing"

	"repro/internal/cov"
	"repro/internal/la"
	"repro/internal/rng"
)

// denseSolveRef computes the reference solution with a full-accuracy dense
// factorization.
func denseSolveRef(t *testing.T, p *Problem, b []float64) []float64 {
	t.Helper()
	x := append([]float64(nil), b...)
	if err := factorize(t, p, theta(), Config{Mode: FullBlock}).Solve(la.NewMatFrom(len(x), 1, x)); err != nil {
		t.Fatal(err)
	}
	return x
}

func TestSolveRefinedReachesTightTolerance(t *testing.T) {
	p := smallProblem(t, 225, 61)
	r := rng.New(62)
	b := make([]float64, p.N())
	r.NormSlice(b)

	// Loose 1e-3 preconditioner, refined to 1e-10.
	x, res, err := SolveRefined(p, theta(), Config{TileSize: 64, Accuracy: 1e-3}, b, RefineOptions{Tol: 1e-10})
	if err != nil {
		t.Fatalf("refinement failed after %d iters (relres %g): %v", res.Iterations, res.RelResidual, err)
	}
	if !res.Converged || res.RelResidual > 1e-10 {
		t.Fatalf("not converged: %+v", res)
	}
	want := denseSolveRef(t, p, b)
	var worst float64
	for i := range x {
		if d := math.Abs(x[i] - want[i]); d > worst {
			worst = d
		}
	}
	if worst > 1e-6 {
		t.Fatalf("refined solution deviates from dense by %g", worst)
	}
}

func TestSolveRefinedBeatsUnrefinedAccuracy(t *testing.T) {
	p := smallProblem(t, 196, 63)
	r := rng.New(64)
	b := make([]float64, p.N())
	r.NormSlice(b)
	want := denseSolveRef(t, p, b)

	// plain loose TLR solve
	plain := append([]float64(nil), b...)
	if err := factorize(t, p, theta(), Config{Mode: TLR, TileSize: 64, Accuracy: 1e-2}).Solve(la.NewMatFrom(len(plain), 1, plain)); err != nil {
		t.Fatal(err)
	}
	var plainErr float64
	for i := range plain {
		plainErr = math.Max(plainErr, math.Abs(plain[i]-want[i]))
	}

	refined, res, err := SolveRefined(p, theta(), Config{TileSize: 64, Accuracy: 1e-2}, b, RefineOptions{Tol: 1e-11})
	if err != nil {
		t.Fatal(err)
	}
	var refErr float64
	for i := range refined {
		refErr = math.Max(refErr, math.Abs(refined[i]-want[i]))
	}
	if refErr >= plainErr/10 {
		t.Fatalf("refinement gained too little: plain %g vs refined %g (%d iters)", plainErr, refErr, res.Iterations)
	}
}

func TestSolveRefinedTighterPreconditionerFewerIterations(t *testing.T) {
	p := smallProblem(t, 196, 65)
	r := rng.New(66)
	b := make([]float64, p.N())
	r.NormSlice(b)
	_, loose, err := SolveRefined(p, theta(), Config{TileSize: 64, Accuracy: 1e-1}, b, RefineOptions{Tol: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	_, tight, err := SolveRefined(p, theta(), Config{TileSize: 64, Accuracy: 1e-6}, b, RefineOptions{Tol: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if tight.Iterations > loose.Iterations {
		t.Fatalf("tighter preconditioner needed more iterations: %d vs %d", tight.Iterations, loose.Iterations)
	}
}

func TestSolveRefinedValidation(t *testing.T) {
	p := smallProblem(t, 25, 67)
	if _, _, err := SolveRefined(p, theta(), Config{}, make([]float64, 7), RefineOptions{}); err == nil {
		t.Fatal("rhs length mismatch must error")
	}
	bad := theta()
	bad.Variance = -1
	if _, _, err := SolveRefined(p, bad, Config{}, make([]float64, p.N()), RefineOptions{}); err == nil {
		t.Fatal("invalid theta must error")
	}
}

func TestExactMatVecMatchesDense(t *testing.T) {
	p := smallProblem(t, 100, 68)
	k := kernelFor(t, theta())
	mv := exactMatVec(p, k, 1e-9, 32)
	r := rng.New(69)
	x := make([]float64, 100)
	r.NormSlice(x)
	got := make([]float64, 100)
	mv(x, got)

	sigma := la.NewMat(100, 100)
	k.Matrix(sigma, p.Points, p.Metric)
	for i := 0; i < 100; i++ {
		sigma.Set(i, i, sigma.At(i, i)+1e-9)
	}
	want := make([]float64, 100)
	la.Gemv(1, sigma, la.NoTrans, x, 0, want)
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-10 {
			t.Fatalf("matrix-free matvec differs at %d: %g vs %g", i, got[i], want[i])
		}
	}
}

// kernelFor builds a Matérn kernel for tests.
func kernelFor(t *testing.T, p cov.Params) *cov.Kernel {
	t.Helper()
	return cov.NewKernel(p)
}
