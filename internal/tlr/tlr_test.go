package tlr

import (
	"math"
	"testing"

	"repro/internal/cov"
	"repro/internal/geom"
	"repro/internal/la"
	"repro/internal/rng"
)

// covTile builds an off-diagonal covariance block between two well separated
// location clusters — the archetypal numerically low-rank tile.
func covTile(t testing.TB, rows, cols int, sep float64) *la.Mat {
	t.Helper()
	r := rng.New(42)
	a := make([]geom.Point, rows)
	b := make([]geom.Point, cols)
	for i := range a {
		a[i] = geom.Point{X: r.Float64() * 0.2, Y: r.Float64() * 0.2}
	}
	for i := range b {
		b[i] = geom.Point{X: sep + r.Float64()*0.2, Y: r.Float64() * 0.2}
	}
	k := cov.NewKernel(cov.Params{Variance: 1, Range: 0.3, Smoothness: 0.5})
	m := la.NewMat(rows, cols)
	k.Block(m, a, b, geom.Euclidean)
	return m
}

func frobDiff(a, b *la.Mat) float64 {
	d := a.Clone()
	d.Sub(b)
	return d.FrobNorm()
}

func TestCompressorsMeetAccuracy(t *testing.T) {
	cases := []struct {
		a    *la.Mat
		tols []float64
	}{
		{covTile(t, 48, 40, 0.8), []float64{1e-3, 1e-6, 1e-9}},
		// Neighbouring clusters at a tight tolerance: the rank is several
		// times rsvd's first sketch, so the sketch is extended repeatedly
		// and the blocks appended last are mostly rounding noise.
		{covTile(t, 128, 128, 0.21), []float64{1e-10}},
	}
	for _, name := range []string{"svd", "rsvd"} {
		comp, err := CompressorByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range cases {
			a := tc.a
			for _, tol := range tc.tols {
				c := comp(a, tol, 0, 0)
				got := frobDiff(c.Dense(), a) / a.FrobNorm()
				// allow a small safety factor over the nominal threshold
				if got > 5*tol {
					t.Errorf("%s %dx%d tol=%g: rel error %g", name, a.Rows, a.Cols, tol, got)
				}
				if c.Rank() < 1 || c.Rank() > min(a.Rows, a.Cols) {
					t.Errorf("%s tol=%g: silly rank %d", name, tol, c.Rank())
				}
			}
		}
	}
}

func TestCompressionRankGrowsWithAccuracy(t *testing.T) {
	a := covTile(t, 64, 64, 0.5)
	prev := 0
	for _, tol := range []float64{1e-2, 1e-5, 1e-8, 1e-12} {
		k := CompressSVD(a, tol, 0, 0).Rank()
		if k < prev {
			t.Fatalf("rank decreased with tighter accuracy: %d then %d", prev, k)
		}
		prev = k
	}
	if prev <= 2 {
		t.Fatalf("tightest accuracy rank suspiciously small: %d", prev)
	}
}

func TestCompressSeparatedClustersLowRank(t *testing.T) {
	// Far-apart clusters → strongly decaying covariance → tiny rank.
	a := covTile(t, 64, 64, 5.0)
	k := CompressSVD(a, 1e-7, 0, 0).Rank()
	if k > 8 {
		t.Fatalf("well-separated tile rank %d, expected ≤ 8", k)
	}
}

func TestCompressorByNameUnknown(t *testing.T) {
	if _, err := CompressorByName("qr-magic"); err == nil {
		t.Fatal("expected error for unknown compressor")
	}
}

func TestRecompressIdempotentAccuracy(t *testing.T) {
	a := covTile(t, 40, 40, 0.6)
	c := CompressSVD(a, 1e-8, 0, 0)
	r := recompressed(c, 1e-8)
	if r.Rank() > c.Rank() {
		t.Fatalf("recompression increased rank: %d -> %d", c.Rank(), r.Rank())
	}
	if got := frobDiff(r.Dense(), a) / a.FrobNorm(); got > 1e-6 {
		t.Fatalf("recompression destroyed accuracy: %g", got)
	}
}

func TestAddLowRank(t *testing.T) {
	a := covTile(t, 32, 32, 0.7)
	c := CompressSVD(a, 1e-10, 0, 0)
	r := rng.New(3)
	x := la.NewMat(32, 3)
	y := la.NewMat(32, 3)
	for i := range x.Data {
		x.Data[i] = r.Norm()
	}
	for i := range y.Data {
		y.Data[i] = r.Norm()
	}
	got := AddLowRank(c, -2, x, y, 1e-10, 0)
	want := a.Clone()
	la.Gemm(-2, x, la.NoTrans, y, la.Transpose, 1, want)
	if rel := frobDiff(got.Dense(), want) / want.FrobNorm(); rel > 1e-8 {
		t.Fatalf("AddLowRank error %g", rel)
	}
}

func TestGemmLL(t *testing.T) {
	a := covTile(t, 30, 30, 0.4)
	b := covTile(t, 30, 30, 0.9)
	cD := covTile(t, 30, 30, 0.6)
	tol := 1e-9
	ca := CompressSVD(a, tol, 0, 0)
	cb := CompressSVD(b, tol, 0, 0)
	cc := CompressSVD(cD, tol, 0, 0)
	got := GemmLL(cc, ca, cb, tol, 0)
	want := cD.Clone()
	la.Gemm(-1, a, la.NoTrans, b, la.Transpose, 1, want)
	if rel := frobDiff(got.Dense(), want) / want.FrobNorm(); rel > 1e-6 {
		t.Fatalf("GemmLL error %g", rel)
	}
}

func TestSyrkLD(t *testing.T) {
	a := covTile(t, 24, 24, 0.5)
	ca := CompressSVD(a, 1e-10, 0, 0)
	c := covTile(t, 24, 24, 0.1) // arbitrary dense diag stand-in
	want := c.Clone()
	la.Gemm(-1, a, la.NoTrans, a, la.Transpose, 1, want)
	SyrkLD(c, ca)
	if rel := frobDiff(c, want) / want.FrobNorm(); rel > 1e-7 {
		t.Fatalf("SyrkLD error %g", rel)
	}
}

func TestTrsmLD(t *testing.T) {
	// dense reference: A L^{-T}
	a := covTile(t, 20, 20, 0.5)
	ca := CompressSVD(a, 1e-11, 0, 0)
	r := rng.New(4)
	l := la.NewMat(20, 20)
	for i := 0; i < 20; i++ {
		for j := 0; j < i; j++ {
			l.Set(i, j, 0.3*r.Norm())
		}
		l.Set(i, i, 1+r.Float64())
	}
	want := a.Clone()
	la.Trsm(la.Right, la.Lower, la.Transpose, 1, l, want)
	TrsmLD(l, ca)
	if rel := frobDiff(ca.Dense(), want) / want.FrobNorm(); rel > 1e-8 {
		t.Fatalf("TrsmLD error %g", rel)
	}
}

// solveVec overwrites b with A⁻¹·b through the two block solves at r = 1.
func solveVec(m *Matrix, b []float64) {
	bm := la.NewMatFrom(len(b), 1, b)
	m.ForwardSolveMat(bm)
	m.BackwardSolveMat(bm)
}

// denseSolveVec is solveVec's dense reference: l is the lower Cholesky factor.
func denseSolveVec(l *la.Mat, b []float64) {
	bm := la.NewMatFrom(len(b), 1, b)
	la.Trsm(la.Left, la.Lower, la.NoTrans, 1, l, bm)
	la.Trsm(la.Left, la.Lower, la.Transpose, 1, l, bm)
}

// A matrix-vector product is the one-column MatMul, in both orientations.
func TestMatVecAndTranspose(t *testing.T) {
	a := covTile(t, 18, 14, 0.6)
	c := CompressSVD(a, 1e-12, 0, 0)
	r := rng.New(5)
	x := make([]float64, 14)
	r.NormSlice(x)
	y := make([]float64, 18)
	MatMul(c, la.NoTrans, 2, la.NewMatFrom(14, 1, x), la.NewMatFrom(18, 1, y))
	want := make([]float64, 18)
	la.Gemv(2, a, la.NoTrans, x, 0, want)
	for i := range y {
		if math.Abs(y[i]-want[i]) > 1e-9 {
			t.Fatalf("one-column MatMul mismatch at %d", i)
		}
	}
	xt := make([]float64, 18)
	r.NormSlice(xt)
	yt := make([]float64, 14)
	MatMul(c, la.Transpose, -1, la.NewMatFrom(18, 1, xt), la.NewMatFrom(14, 1, yt))
	wantT := make([]float64, 14)
	la.Gemv(-1, a, la.Transpose, xt, 0, wantT)
	for i := range yt {
		if math.Abs(yt[i]-wantT[i]) > 1e-9 {
			t.Fatalf("one-column transposed MatMul mismatch at %d", i)
		}
	}
}

// maternTLR builds a TLR covariance matrix and its dense counterpart.
func maternTLR(t *testing.T, n, nb int, rangeP, tol float64) (*Matrix, *la.Mat, []geom.Point) {
	t.Helper()
	r := rng.New(7)
	pts := geom.GeneratePerturbedGrid(n, r)
	pts = geom.ApplyPerm(pts, geom.MortonOrder(pts))
	k := cov.NewKernel(cov.Params{Variance: 1, Range: rangeP, Smoothness: 0.5})
	dense := la.NewMat(n, n)
	k.Matrix(dense, pts, geom.Euclidean)
	nugget := 1e-10
	cov.AddNugget(dense, nugget)
	m := FromKernel(k, pts, geom.Euclidean, n, nb, tol, CompressSVD, nugget, 1)
	return m, dense, pts
}

func TestFromKernelMatchesDense(t *testing.T) {
	m, dense, _ := maternTLR(t, 120, 30, 0.1, 1e-9)
	rec := m.ToDense()
	if rel := frobDiff(rec, dense) / dense.FrobNorm(); rel > 1e-7 {
		t.Fatalf("TLR assembly error %g", rel)
	}
}

func TestTLRCompressionSavesMemory(t *testing.T) {
	m, _, _ := maternTLR(t, 256, 32, 0.03, 1e-5)
	if m.Bytes() >= m.DenseBytes() {
		t.Fatalf("no compression: %d vs %d bytes", m.Bytes(), m.DenseBytes())
	}
	maxK, meanK := m.RankStats()
	if maxK > 32 || meanK <= 0 {
		t.Fatalf("rank stats off: max=%d mean=%g", maxK, meanK)
	}
}

func TestTLRCholeskyMatchesDense(t *testing.T) {
	for _, cfg := range []struct {
		n, nb int
		tol   float64
	}{
		{96, 24, 1e-9},
		{128, 32, 1e-10},
		{100, 32, 1e-9}, // ragged tiles
	} {
		m, dense, _ := maternTLR(t, cfg.n, cfg.nb, 0.1, cfg.tol)
		ref := dense.Clone()
		if err := la.Potrf(ref); err != nil {
			t.Fatal(err)
		}
		if err := Cholesky(m, 4); err != nil {
			t.Fatalf("TLR cholesky failed (n=%d): %v", cfg.n, err)
		}
		// Compare reconstructed lower factors: L_tlr ≈ L_dense within a
		// factor of the compression threshold amplified by conditioning.
		got := m.ToDense()
		var worst float64
		for i := 0; i < cfg.n; i++ {
			for j := 0; j <= i; j++ {
				d := math.Abs(got.At(i, j) - ref.At(i, j))
				if d > worst {
					worst = d
				}
			}
		}
		if worst > 1e4*cfg.tol {
			t.Fatalf("n=%d nb=%d tol=%g: factor deviation %g", cfg.n, cfg.nb, cfg.tol, worst)
		}
	}
}

func TestTLRLogDetConvergesWithAccuracy(t *testing.T) {
	n := 144
	var want float64
	{
		_, dense, _ := maternTLR(t, n, 24, 0.1, 1e-9)
		ref := dense.Clone()
		if err := la.Potrf(ref); err != nil {
			t.Fatal(err)
		}
		want = la.LogDetFromChol(ref)
	}
	prevErr := math.Inf(1)
	for _, tol := range []float64{1e-4, 1e-7, 1e-10} {
		m, _, _ := maternTLR(t, n, 24, 0.1, tol)
		if err := Cholesky(m, 2); err != nil {
			t.Fatal(err)
		}
		e := math.Abs(m.LogDet() - want)
		if e > prevErr*1.5 { // must not get worse as tol tightens
			t.Fatalf("logdet error grew: tol=%g err=%g prev=%g", tol, e, prevErr)
		}
		prevErr = e
	}
	if prevErr > 1e-5*math.Abs(want)+1e-5 {
		t.Fatalf("tightest accuracy logdet error %g too large", prevErr)
	}
}

func TestTLRSolveMatchesDense(t *testing.T) {
	n := 128
	m, dense, _ := maternTLR(t, n, 32, 0.1, 1e-10)
	ref := dense.Clone()
	if err := la.Potrf(ref); err != nil {
		t.Fatal(err)
	}
	if err := Cholesky(m, 4); err != nil {
		t.Fatal(err)
	}
	r := rng.New(9)
	b := make([]float64, n)
	r.NormSlice(b)
	want := append([]float64(nil), b...)
	denseSolveVec(ref, want)
	got := append([]float64(nil), b...)
	solveVec(m, got)
	var worst float64
	for i := range got {
		if d := math.Abs(got[i] - want[i]); d > worst {
			worst = d
		}
	}
	if worst > 1e-4 {
		t.Fatalf("TLR solve deviation %g", worst)
	}
}

func TestTLRCholeskyWorkerInvariance(t *testing.T) {
	// The DAG must serialize all conflicting accesses: results with 1 and 8
	// workers agree exactly (identical operation order per tile chain).
	m1, _, _ := maternTLR(t, 96, 24, 0.1, 1e-8)
	m8, _, _ := maternTLR(t, 96, 24, 0.1, 1e-8)
	if err := Cholesky(m1, 1); err != nil {
		t.Fatal(err)
	}
	if err := Cholesky(m8, 8); err != nil {
		t.Fatal(err)
	}
	d1, d8 := m1.ToDense(), m8.ToDense()
	if !d1.Equalish(d8, 1e-13) {
		t.Fatal("worker count changed TLR factorization result")
	}
}

func TestRankFloorPreventsZeroRank(t *testing.T) {
	// frobRank must return at least 1 even for pure-noise tiny tiles; only
	// an exactly zero spectrum is rank 0.
	if k := frobRank([]float64{1e-30, 1e-31}, 1e-9); k < 1 {
		t.Fatal("frobRank returned 0")
	}
	if k := frobRank([]float64{0, 0}, 1e-9); k != 0 {
		t.Fatalf("frobRank of a zero spectrum = %d", k)
	}
	// rsvd's truncation ranks against an absolute budget that the residual
	// estimate may leave negative: then every direction is kept.
	if k := tailRank(nil, 1e-9); k != 0 {
		t.Fatalf("tailRank of an empty spectrum = %d", k)
	}
	if k := tailRank([]float64{1, 1e-9}, -1e-30); k != 2 {
		t.Fatalf("tailRank under a negative budget = %d, want 2", k)
	}
}
