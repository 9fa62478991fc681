package hodlr

import (
	"errors"
	"math"
	"testing"

	"repro/internal/cov"
	"repro/internal/geom"
	"repro/internal/la"
	"repro/internal/rng"
	"repro/internal/runtime"
	"repro/internal/tlr"
)

// choleskyRef returns the dense Cholesky factor and logdet of dense+nugget·I.
func choleskyRef(t *testing.T, dense *la.Mat, nugget float64) (*la.Mat, float64) {
	t.Helper()
	ref := dense.Clone()
	cov.AddNugget(ref, nugget)
	if err := la.Potrf(ref); err != nil {
		t.Fatal(err)
	}
	return ref, la.LogDetFromChol(ref)
}

func TestCholeskyLogDetMatchesDense(t *testing.T) {
	for _, n := range []int{100, 256, 300} {
		k, pts, dense := testSetup(t, n)
		_, want := choleskyRef(t, dense, 1e-8)
		m := Build(k, pts, geom.Euclidean, 32, 1e-11, tlr.CompressSVD, 1e-8)
		if err := m.Cholesky(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		got := m.LogDet()
		if math.Abs(got-want) > 1e-6*math.Abs(want) {
			t.Fatalf("n=%d: logdet %g vs dense %g", n, got, want)
		}
	}
}

// solveVec overwrites b with A⁻¹·b through the two block solves at r = 1.
func solveVec(m *Matrix, b []float64) {
	bm := la.NewMatFrom(len(b), 1, b)
	m.ForwardSolveMat(bm)
	m.BackwardSolveMat(bm)
}

func TestSolveMatchesDense(t *testing.T) {
	n := 300
	k, pts, dense := testSetup(t, n)
	ref, _ := choleskyRef(t, dense, 1e-8)
	m := Build(k, pts, geom.Euclidean, 32, 1e-11, tlr.CompressSVD, 1e-8)
	if err := m.Cholesky(); err != nil {
		t.Fatal(err)
	}
	r := rng.New(11)
	b := make([]float64, n)
	r.NormSlice(b)

	// Full solve A⁻¹b.
	got := append([]float64(nil), b...)
	solveVec(m, got)
	want := append([]float64(nil), b...)
	wm := la.NewMatFrom(n, 1, want)
	la.Trsm(la.Left, la.Lower, la.NoTrans, 1, ref, wm)
	la.Trsm(la.Left, la.Lower, la.Transpose, 1, ref, wm)
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-6 {
			t.Fatalf("solve mismatch at %d: %g vs %g", i, got[i], want[i])
		}
	}

	// Half solve L⁻¹b — the likelihood's quadratic-form path needs only the
	// norm to agree (the HODLR L differs from the dense L by the block
	// approximation, but ‖L⁻¹b‖² = bᵀA⁻¹b must match).
	gh := append([]float64(nil), b...)
	m.ForwardSolveMat(la.NewMatFrom(n, 1, gh))
	wh := append([]float64(nil), b...)
	la.Trsm(la.Left, la.Lower, la.NoTrans, 1, ref, la.NewMatFrom(n, 1, wh))
	if gq, wq := la.Dot(gh, gh), la.Dot(wh, wh); math.Abs(gq-wq) > 1e-6*wq {
		t.Fatalf("quadratic form %g vs dense %g", gq, wq)
	}
}

// GenCholesky must be bitwise-identical at any worker count and equal to the
// sequential Cholesky on the same tree — for the deterministic SVD
// compressor and the per-block-seeded randomized one alike.
func TestGenCholeskyDeterministicAcrossWorkers(t *testing.T) {
	n := 300
	k, pts, _ := testSetup(t, n)
	for name, comp := range map[string]tlr.Compressor{"svd": tlr.CompressSVD, "rsvd": tlr.CompressRSVD} {
		run := func(workers int) (*Matrix, float64) {
			m := NewTree(n, 32, 1e-9)
			spec := &tlr.GenSpec{K: k, Pts: pts, Metric: geom.Euclidean, Nugget: 1e-8, Comp: comp}
			if err := GenCholesky(m, spec, workers); err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			return m, m.LogDet()
		}
		m1, ld1 := run(1)
		m8, ld8 := run(8)
		if ld1 != ld8 {
			t.Fatalf("%s: logdet drifts with workers: %.17g vs %.17g", name, ld1, ld8)
		}
		r := rng.New(13)
		b := make([]float64, n)
		r.NormSlice(b)
		b1 := append([]float64(nil), b...)
		b8 := append([]float64(nil), b...)
		solveVec(m1, b1)
		solveVec(m8, b8)
		for i := range b1 {
			if b1[i] != b8[i] {
				t.Fatalf("%s: solve drifts with workers at %d: %.17g vs %.17g", name, i, b1[i], b8[i])
			}
		}
	}
}

// Re-executing the cached assembly+factorization graph with a new θ must
// equal a fresh single-shot factorization bitwise — the graph-reuse contract
// core's evaluator depends on.
func TestGenGraphReuseAcrossTheta(t *testing.T) {
	n := 256
	_, pts, _ := testSetup(t, n)
	thetas := []cov.Params{
		{Variance: 1, Range: 0.1, Smoothness: 0.5},
		{Variance: 2.5, Range: 0.05, Smoothness: 1.5},
		{Variance: 1, Range: 0.1, Smoothness: 0.5}, // revisit the first point
	}
	m := NewTree(n, 32, 1e-9)
	spec := &tlr.GenSpec{Pts: pts, Metric: geom.Euclidean, Comp: tlr.CompressRSVD}
	g := BuildGenCholeskyGraph(m, spec)
	for _, th := range thetas {
		spec.K = cov.NewKernel(th)
		spec.Nugget = 1e-8
		if err := g.Execute(runtime.ExecOptions{Workers: 4}); err != nil {
			t.Fatalf("reused graph θ=%v: %v", th, err)
		}
		reused := m.LogDet()

		fresh := NewTree(n, 32, 1e-9)
		fspec := &tlr.GenSpec{K: spec.K, Pts: pts, Metric: geom.Euclidean, Nugget: 1e-8, Comp: tlr.CompressRSVD}
		if err := GenCholesky(fresh, fspec, 4); err != nil {
			t.Fatal(err)
		}
		if want := fresh.LogDet(); reused != want {
			t.Fatalf("θ=%v: reused graph logdet %.17g vs fresh %.17g", th, reused, want)
		}
	}
}

// A numerically non-SPD assembly must surface la.ErrNotPositiveDefinite
// through the task execution (wrapped), for both the sequential and the
// graph path.
func TestCholeskyBreakdownError(t *testing.T) {
	n := 128
	_, pts, _ := testSetup(t, n)
	// Huge range makes all correlations ≈1 with no nugget: numerically
	// singular.
	k := cov.NewKernel(cov.Params{Variance: 1, Range: 1e8, Smoothness: 0.5})

	m := Build(k, pts, geom.Euclidean, 32, 1e-12, tlr.CompressSVD, 0)
	err := m.Cholesky()
	if err == nil {
		t.Skip("near-singular Σ unexpectedly factored; cannot exercise breakdown")
	}
	if !errors.Is(err, la.ErrNotPositiveDefinite) {
		t.Fatalf("sequential breakdown not ErrNotPositiveDefinite: %v", err)
	}

	mg := NewTree(n, 32, 1e-12)
	spec := &tlr.GenSpec{K: k, Pts: pts, Metric: geom.Euclidean, Comp: tlr.CompressSVD}
	gerr := GenCholesky(mg, spec, 4)
	if gerr == nil {
		t.Fatal("graph factorization of near-singular Σ succeeded while sequential failed")
	}
	if !errors.Is(gerr, la.ErrNotPositiveDefinite) {
		t.Fatalf("graph breakdown not ErrNotPositiveDefinite: %v", gerr)
	}
}

func TestRankStatsReportsCompression(t *testing.T) {
	k, pts, _ := testSetup(t, 256)
	m := Build(k, pts, geom.Euclidean, 32, 1e-6, tlr.CompressSVD, 1e-8)
	if err := m.Cholesky(); err != nil {
		t.Fatal(err)
	}
	max, mean := m.RankStats()
	if max < 1 || max > 128 || mean <= 0 || mean > float64(max) {
		t.Fatalf("implausible rank stats: max %d mean %g", max, mean)
	}
}

// BenchmarkGenCholesky times one fused assembly + factorization of a HODLR
// tree on two workers: n = 1 600, leaf 128, ν = 0.6, rsvd at 1e-7. The graph
// and the tree are reused across iterations, as core's evaluator reuses them.
func BenchmarkGenCholesky(b *testing.B) {
	const n, leaf, tol = 1600, 128, 1e-7
	pts := geom.GeneratePerturbedGrid(n, rng.New(1))
	pts = geom.ApplyPerm(pts, geom.MortonOrder(pts))
	spec := &tlr.GenSpec{
		K:   cov.NewKernel(cov.Params{Variance: 1, Range: 0.08, Smoothness: 0.6}),
		Pts: pts, Metric: geom.Euclidean, Nugget: 1e-9, Comp: tlr.CompressRSVD,
	}
	m := NewTree(n, leaf, tol)
	g := BuildGenCholeskyGraph(m, spec)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := g.Execute(runtime.ExecOptions{Workers: 2}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(m.Bytes())/(1<<20), "factor_MiB")
}
