package core

import (
	"math"
	"slices"
	"testing"

	"repro/internal/cov"
	"repro/internal/geom"
	"repro/internal/la"
	"repro/internal/rng"
	"repro/internal/tlr"
)

// denseSolveRef computes the reference solution with a full-accuracy dense
// factorization, in the Problem's order.
func denseSolveRef(t *testing.T, p *Problem, b []float64) []float64 {
	t.Helper()
	x := append([]float64(nil), b...)
	if err := factorize(t, p, theta(), Config{Mode: FullBlock, Ordering: geom.OrderNone}).Solve(la.NewMatFrom(len(x), 1, x)); err != nil {
		t.Fatal(err)
	}
	return x
}

// A loose TLR preconditioner refined to 1e-10 gives the dense solution, in
// the caller's order although the session runs on KD blocks.
func TestSolveRefinedReachesTightTolerance(t *testing.T) {
	pts, z := rawDataset(t, 225, 61)
	p, err := NewProblem(pts, z, geom.Euclidean)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(62)
	b := make([]float64, p.N())
	r.NormSlice(b)

	x, res, err := SolveRefined(p, theta(), Config{Mode: TLR, TileSize: 64, Accuracy: 1e-3}, b, RefineOptions{Tol: 1e-10})
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

	// plain loose TLR solve, in the Problem's order
	plain := append([]float64(nil), b...)
	if err := factorize(t, p, theta(), Config{Mode: TLR, TileSize: 64, Accuracy: 1e-2, Ordering: geom.OrderNone}).Solve(la.NewMatFrom(len(plain), 1, plain)); err != nil {
		t.Fatal(err)
	}
	var plainErr float64
	for i := range plain {
		plainErr = math.Max(plainErr, math.Abs(plain[i]-want[i]))
	}

	refined, res, err := SolveRefined(p, theta(), Config{Mode: TLR, TileSize: 64, Accuracy: 1e-2}, b, RefineOptions{Tol: 1e-11})
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
	_, loose, err := SolveRefined(p, theta(), Config{Mode: TLR, TileSize: 64, Accuracy: 1e-1}, b, RefineOptions{Tol: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	_, tight, err := SolveRefined(p, theta(), Config{Mode: TLR, TileSize: 64, Accuracy: 1e-6}, b, RefineOptions{Tol: 1e-9})
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

// refineCase is a Problem in caller order and a right-hand side for it.
func refineCase(t *testing.T, n int, seed uint64) (*Problem, []float64) {
	t.Helper()
	pts, z := rawDataset(t, n, seed)
	p, err := NewProblem(pts, z, geom.Euclidean)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, n)
	rng.New(seed + 1).NormSlice(b)
	return p, b
}

// SolveRefined factors through the session, so it runs on ranks: four ranks
// factor bitwise as shared memory does, and the refined solution agrees.
func TestSolveRefinedOnRanks(t *testing.T) {
	p, b := refineCase(t, 200, 71)
	cfg := Config{Mode: TLR, TileSize: 40, Accuracy: 1e-3}
	want, wantRes, err := SolveRefined(p, theta(), cfg, b, RefineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Ranks = 4
	got, gotRes, err := SolveRefined(p, theta(), cfg, b, RefineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if gotRes.Iterations != wantRes.Iterations {
		t.Errorf("ranks took %d iterations, shared memory %d", gotRes.Iterations, wantRes.Iterations)
	}
	for i := range want {
		if d := math.Abs(got[i] - want[i]); d > 1e-12*math.Max(1, math.Abs(want[i])) {
			t.Fatalf("x[%d]: ranks %g, shared %g", i, got[i], want[i])
		}
	}
}

// Out of core, the preconditioner is bitwise the in-core one, and so is the
// refined solution.
func TestSolveRefinedOutOfCoreBitwise(t *testing.T) {
	p, b := refineCase(t, 200, 73)
	cfg := Config{Mode: TLR, TileSize: 40, Accuracy: 1e-3}
	want, wantRes, err := SolveRefined(p, theta(), cfg, b, RefineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cfg.MemBudget = tlr.MinMemBudget(40, 1)
	got, gotRes, err := SolveRefined(p, theta(), cfg, b, RefineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if gotRes != wantRes || !slices.Equal(got, want) {
		t.Fatalf("out of core: %+v, in core %+v; solutions equal: %v", gotRes, wantRes, slices.Equal(got, want))
	}
}

// The preconditioner is whatever Config.Mode factors: a dense one is exact
// (Accuracy, which a TLR preconditioner this loose would need many
// iterations at, does not apply to it), so PCG stops after its first step.
func TestSolveRefinedHonoursMode(t *testing.T) {
	p, b := refineCase(t, 200, 75)
	for _, mode := range []Mode{FullBlock, FullTile} {
		x, res, err := SolveRefined(p, theta(), Config{Mode: mode, TileSize: 40, Accuracy: 1e-2}, b, RefineOptions{})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if !res.Converged || res.Iterations > 2 {
			t.Fatalf("%v preconditioner: %+v, want convergence in at most 2 iterations", mode, res)
		}
		want := denseSolveRef(t, p, b)
		for i := range x {
			if d := math.Abs(x[i] - want[i]); d > 1e-6 {
				t.Fatalf("%v: x[%d] off the dense solution by %g", mode, i, d)
			}
		}
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
