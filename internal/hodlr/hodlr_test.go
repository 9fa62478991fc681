package hodlr

import (
	"math"
	"testing"

	"repro/internal/cov"
	"repro/internal/geom"
	"repro/internal/la"
	"repro/internal/rng"
	"repro/internal/tlr"
)

func testSetup(t *testing.T, n int) (*cov.Kernel, []geom.Point, *la.Mat) {
	t.Helper()
	r := rng.New(5)
	pts := geom.GeneratePerturbedGrid(n, r)
	pts = geom.ApplyPerm(pts, geom.MortonOrder(pts))
	k := cov.NewKernel(cov.Params{Variance: 1, Range: 0.1, Smoothness: 0.5})
	dense := la.NewMat(n, n)
	k.Matrix(dense, pts, geom.Euclidean)
	return k, pts, dense
}

func TestBuildReconstruction(t *testing.T) {
	for _, n := range []int{64, 100, 256} {
		k, pts, dense := testSetup(t, n)
		m := Build(k, pts, geom.Euclidean, 32, 1e-8, tlr.CompressSVD, 0)
		rec := m.Dense()
		diff := rec.Clone()
		diff.Sub(dense)
		if rel := diff.FrobNorm() / dense.FrobNorm(); rel > 1e-6 {
			t.Fatalf("n=%d: reconstruction error %g", n, rel)
		}
	}
}

func TestAccuracyControlsError(t *testing.T) {
	k, pts, dense := testSetup(t, 200)
	prev := math.Inf(1)
	for _, tol := range []float64{1e-2, 1e-5, 1e-9} {
		m := Build(k, pts, geom.Euclidean, 25, tol, tlr.CompressSVD, 0)
		diff := m.Dense()
		diff.Sub(dense)
		rel := diff.FrobNorm() / dense.FrobNorm()
		if rel > prev*1.5 {
			t.Fatalf("error did not improve with accuracy: %g -> %g", prev, rel)
		}
		prev = rel
	}
	if prev > 1e-7 {
		t.Fatalf("tightest accuracy error %g", prev)
	}
}

func TestTreeStructure(t *testing.T) {
	k, pts, _ := testSetup(t, 256)
	m := Build(k, pts, geom.Euclidean, 32, 1e-6, tlr.CompressSVD, 0)
	// 256 → 128 → 64 → 32: 4 levels
	if m.Levels() != 4 {
		t.Fatalf("levels = %d, want 4", m.Levels())
	}
	if m.MaxRank() < 1 || m.MaxRank() > 128 {
		t.Fatalf("max rank %d implausible", m.MaxRank())
	}
}

func TestCompressionBeatsDense(t *testing.T) {
	k, pts, _ := testSetup(t, 400)
	m := Build(k, pts, geom.Euclidean, 50, 1e-5, tlr.CompressSVD, 0)
	denseBytes := int64(400 * 400 * 8)
	if m.Bytes() >= denseBytes {
		t.Fatalf("no compression: %d vs %d", m.Bytes(), denseBytes)
	}
}

func TestMatVecMatchesDense(t *testing.T) {
	k, pts, dense := testSetup(t, 150)
	m := Build(k, pts, geom.Euclidean, 20, 1e-10, tlr.CompressSVD, 0)
	r := rng.New(6)
	x := make([]float64, 150)
	r.NormSlice(x)
	got := make([]float64, 150)
	m.MatMul(1.5, la.NewMatFrom(150, 1, x), la.NewMatFrom(150, 1, got))
	want := make([]float64, 150)
	la.Gemv(1.5, dense, la.NoTrans, x, 0, want)
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-7 {
			t.Fatalf("matvec mismatch at %d: %g vs %g", i, got[i], want[i])
		}
	}
}

func TestNuggetOnLeaves(t *testing.T) {
	k, pts, dense := testSetup(t, 64)
	m := Build(k, pts, geom.Euclidean, 16, 1e-10, tlr.CompressSVD, 0.5)
	rec := m.Dense()
	for i := 0; i < 64; i++ {
		if math.Abs(rec.At(i, i)-(dense.At(i, i)+0.5)) > 1e-9 {
			t.Fatalf("nugget missing at %d", i)
		}
	}
}

func TestMatVecDimsPanic(t *testing.T) {
	k, pts, _ := testSetup(t, 64)
	m := Build(k, pts, geom.Euclidean, 16, 1e-6, tlr.CompressSVD, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dimension mismatch")
		}
	}()
	m.MatMul(1, la.NewMat(10, 1), la.NewMat(64, 1))
}

// The comparison the related-work section motivates: at equal accuracy on a
// smooth kernel, HODLR's top-level blocks exploit more structure, but TLR
// remains competitive — both far below dense storage.
func TestHODLRvsTLRStorage(t *testing.T) {
	k, pts, _ := testSetup(t, 512)
	h := Build(k, pts, geom.Euclidean, 64, 1e-6, tlr.CompressSVD, 0)
	tl := tlr.FromKernel(k, pts, geom.Euclidean, 512, 64, 1e-6, tlr.CompressSVD, 0, 1)
	denseBytes := int64(512 * 512 * 8)
	if h.Bytes() >= denseBytes || tl.Bytes() >= denseBytes {
		t.Fatalf("formats failed to compress: hodlr %d tlr %d dense %d", h.Bytes(), tl.Bytes(), denseBytes)
	}
	t.Logf("storage at 1e-6: dense %d, TLR %d, HODLR %d", denseBytes, tl.Bytes(), h.Bytes())
}
