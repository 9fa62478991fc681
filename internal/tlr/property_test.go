package tlr

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/geom"
	"repro/internal/la"
	"repro/internal/rng"
	"repro/internal/tile"
)

// Property: compressing an exactly rank-k matrix recovers it with rank ≤ k
// (plus slack for the rank-1 floor) and error at the threshold.
func TestQuickCompressExactLowRank(t *testing.T) {
	f := func(seed int64) bool {
		r := rng.New(uint64(seed) + 1)
		m := 8 + r.Intn(40)
		n := 8 + r.Intn(40)
		k := 1 + r.Intn(min(m, n)/2+1)
		x := la.NewMat(m, k)
		y := la.NewMat(n, k)
		for i := range x.Data {
			x.Data[i] = r.Norm()
		}
		for i := range y.Data {
			y.Data[i] = r.Norm()
		}
		a := la.NewMat(m, n)
		la.Gemm(1, x, la.NoTrans, y, la.Transpose, 0, a)
		c := CompressSVD(a, 1e-9, 0, 0)
		if c.Rank() > k {
			return false
		}
		d := c.Dense()
		d.Sub(a)
		return d.FrobNorm() <= 1e-7*a.FrobNorm()+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: AddLowRank is linear — adding then subtracting the same update
// returns (to within the threshold) the original tile.
func TestQuickAddLowRankInverts(t *testing.T) {
	f := func(seed int64) bool {
		r := rng.New(uint64(seed) + 2)
		n := 12 + r.Intn(24)
		base := la.NewMat(n, n)
		for i := range base.Data {
			base.Data[i] = r.Norm()
		}
		c0 := CompressSVD(base, 1e-10, 0, 0)
		x := la.NewMat(n, 2)
		y := la.NewMat(n, 2)
		for i := range x.Data {
			x.Data[i] = r.Norm()
		}
		for i := range y.Data {
			y.Data[i] = r.Norm()
		}
		c1 := AddLowRank(c0, 1, x, y, 1e-10, 0)
		c2 := AddLowRank(c1, -1, x, y, 1e-10, 0)
		d := c2.Dense()
		d.Sub(c0.Dense())
		return d.FrobNorm() <= 1e-6*(c0.Dense().FrobNorm()+1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: rank never exceeds matrix dimensions and Bytes matches the
// factor shapes.
func TestQuickCompTileInvariants(t *testing.T) {
	f := func(seed int64) bool {
		r := rng.New(uint64(seed) + 3)
		m := 4 + r.Intn(30)
		n := 4 + r.Intn(30)
		a := la.NewMat(m, n)
		for i := range a.Data {
			a.Data[i] = r.Norm()
		}
		tol := math.Pow(10, -1-float64(r.Intn(9)))
		c := CompressRSVD(a, tol, uint64(seed), r.Intn(min(m, n)+2))
		if c.Rank() < 1 || c.Rank() > min(m, n) {
			return false
		}
		if c.Rows() != m || c.Cols() != n {
			return false
		}
		return c.Bytes() == int64(m+n)*int64(c.Rank())*8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// gradedFactor returns an m×k factor whose columns are orthonormal directions
// scaled from 1 down to 10^-decades — the column scaling U·Σ of a compressed
// covariance tile.
func gradedFactor(r *rng.Rand, m, k int, decades float64) *la.Mat {
	g := la.NewMat(m, k)
	r.NormSlice(g.Data)
	q, _ := la.QRThin(nil, g)
	for j := 0; j < q.Cols; j++ {
		s := math.Pow(10, -decades*float64(j)/float64(max(k-1, 1)))
		for i := 0; i < m; i++ {
			q.Set(i, j, q.At(i, j)*s)
		}
	}
	return q
}

// recompressed is recompress of c's factors (rank ≥ 1) in a pooled arena,
// as addLowRank's general branch runs it.
func recompressed(c *CompTile, tol float64) *CompTile {
	w := getWork()
	defer putWork(w)
	return recompress(w, c.U, c.V, tol)
}

// stack returns [a, b] column-wise.
func stack(a, b *la.Mat) *la.Mat {
	out := la.NewMat(a.Rows, a.Cols+b.Cols)
	out.View(0, 0, a.Rows, a.Cols).CopyFrom(a)
	out.View(0, a.Cols, b.Rows, b.Cols).CopyFrom(b)
	return out
}

// recompress at the shapes TLR GEMM feeds it: the error stays within tol and
// the rank is exactly the rank an untruncated SVD of the dense product picks
// at that tol — the preconditioned, truncated kernels move no rank.
func TestRecompressMatchesDenseSVD(t *testing.T) {
	r := rng.New(11)
	// C's factors stacked with an update that partly repeats them, with one
	// zero column: the 128×56 panels of a TLR GEMM at nb=128.
	u0, v0 := gradedFactor(r, 128, 28, 8), gradedFactor(r, 128, 28, 0)
	x, y := gradedFactor(r, 128, 28, 6), gradedFactor(r, 128, 28, 0)
	for i := 0; i < 128; i++ {
		copy(x.Row(i)[:10], u0.Row(i)[:10])
		x.Row(i)[20] = 0
	}
	cases := []struct {
		name string
		u, v *la.Mat
	}{
		{"stacked 128x56", stack(u0, x), stack(v0, y)},
		{"stacked rank exceeds rows 32x40", stack(gradedFactor(r, 32, 20, 5), gradedFactor(r, 32, 20, 7)), stack(gradedFactor(r, 32, 20, 0), gradedFactor(r, 32, 20, 0))},
		{"rectangular 96x128 by 30", gradedFactor(r, 96, 30, 12), gradedFactor(r, 128, 30, 0)},
		{"one column", gradedFactor(r, 24, 1, 0), gradedFactor(r, 24, 1, 0)},
	}
	for _, tc := range cases {
		c := &CompTile{U: tc.u, V: tc.v}
		dense := c.Dense()
		_, s, _ := la.SVDThin(nil, dense, 0)
		for _, tol := range []float64{1e-5, 1e-7, 1e-9} {
			got := recompressed(c, tol)
			if want := frobRank(s, tol); got.Rank() != want {
				t.Errorf("%s tol %g: rank %d, dense SVD gives %d", tc.name, tol, got.Rank(), want)
			}
			d := got.Dense()
			d.Sub(dense)
			if e := d.FrobNorm(); e > tol*dense.FrobNorm() {
				t.Errorf("%s tol %g: error %g·‖A‖_F", tc.name, tol, e/dense.FrobNorm())
			}
		}
	}
}

// A low-rank update at the shapes and angles a factorization produces: the
// error stays within tol·‖C′‖_F, the rank is within one of what an
// untruncated SVD of the dense C′ picks, the result can serve as the target
// of the next update, and only a C that does not carry orthogonal bases is
// stacked and recompressed from scratch.
func TestAddLowRankMatchesDenseSVD(t *testing.T) {
	r := rng.New(21)
	tileOf := func(m, n, k int, decades float64) *CompTile {
		return &CompTile{U: gradedFactor(r, m, k, decades), V: gradedFactor(r, n, k, 0)}
	}
	times := func(a, b *la.Mat) *la.Mat {
		out := la.NewMat(a.Rows, b.Cols)
		la.Gemm(1, a, la.NoTrans, b, la.NoTrans, 0, out)
		return out
	}
	rnd := func(m, n int) *la.Mat {
		a := la.NewMat(m, n)
		r.NormSlice(a.Data)
		return a
	}
	graded := tileOf(128, 128, 28, 8)

	// X ⟂ U: a graded factor with its components along Û removed.
	uhat, _ := la.QRThin(nil, graded.U)
	perp := gradedFactor(r, 128, 20, 6)
	perp.Sub(times(uhat, times(uhat.T(), perp)))

	// An update that cancels 90 % of C and adds a little of its own.
	cancel := graded.U.Clone()
	cancel.Scale(0.9)
	for i := 0; i < 128; i++ {
		for j, v := range gradedFactor(r, 128, 28, 6).Row(i) {
			cancel.Row(i)[j] += 1e-3 * v
		}
	}

	// A panel tile after its triangular solve: V is no longer orthonormal.
	solved := tileOf(128, 128, 28, 8)
	l := la.NewMat(128, 128)
	for i := 0; i < 128; i++ {
		for j := 0; j < i; j++ {
			l.Set(i, j, 0.1*r.Norm())
		}
		l.Set(i, i, 1+r.Float64())
	}
	TrsmLD(l, solved)

	cases := []struct {
		name    string
		c       *CompTile
		alpha   float64
		x, y    *la.Mat
		general bool
	}{
		{"graded 128x28 + 128x28", graded, -1, gradedFactor(r, 128, 28, 8), gradedFactor(r, 128, 28, 0), false},
		{"X inside span(U)", graded, -1, times(graded.U, rnd(28, 12)), gradedFactor(r, 128, 12, 0), false},
		{"X orthogonal to U", graded, -1, perp, gradedFactor(r, 128, 20, 0), false},
		{"kx > kc", tileOf(128, 128, 6, 2), 1, gradedFactor(r, 128, 30, 8), gradedFactor(r, 128, 30, 0), false},
		{"ragged 64x128", tileOf(64, 128, 20, 8), -1, gradedFactor(r, 64, 20, 6), gradedFactor(r, 128, 20, 1), false},
		{"C - C", graded, -1, graded.U, graded.V, false},
		{"cancels 90% of C", graded, -1, cancel, graded.V, false},
		{"V through TrsmLD", solved, -1, gradedFactor(r, 128, 28, 8), gradedFactor(r, 128, 28, 0), true},
		{"no room: kc+kx > rows", tileOf(40, 128, 24, 8), -1, gradedFactor(r, 40, 24, 6), gradedFactor(r, 128, 24, 0), true},
	}
	for _, tc := range cases {
		dense := tc.c.Dense()
		la.Gemm(tc.alpha, tc.x, la.NoTrans, tc.y, la.Transpose, 1, dense)
		_, s, _ := la.SVDThin(nil, dense, 0)
		if tc.name == "C - C" {
			s = nil // what is left of C − C is rounding noise, not a spectrum
		}
		for _, tol := range []float64{1e-5, 1e-7, 1e-9} {
			general := cntGeneral.Value()
			got := AddLowRank(tc.c, tc.alpha, tc.x, tc.y, tol, 0)
			if took := cntGeneral.Value() > general; took != tc.general {
				t.Errorf("%s tol %g: general path taken = %v, want %v", tc.name, tol, took, tc.general)
			}
			if want := frobRank(s, tol); got.Rank() > want+1 || (want == 0 && got.Rank() != 0) {
				t.Errorf("%s tol %g: rank %d, dense SVD gives %d", tc.name, tol, got.Rank(), want)
			}
			d := got.Dense()
			d.Sub(dense)
			if e, ref := d.FrobNorm(), dense.FrobNorm(); e > tol*ref && len(s) > 0 {
				t.Errorf("%s tol %g: error %g·‖C′‖_F", tc.name, tol, e/ref)
			}
			if gu, gv := basisGaps(got); gu > gramSlack || gv > gramSlack {
				t.Errorf("%s tol %g: result has UᵀU off-diagonal %g, ‖VᵀV − I‖ %g", tc.name, tol, gu, gv)
			}
		}
	}
}

// The fused generate+compress+factor graph is bitwise-identical at any
// worker count with the pooled kernel workspaces in play: an arena reused
// across tiles of different shapes and ranks leaks nothing into a result.
func TestGenCholeskyWorkerBitwise(t *testing.T) {
	const n, nb = 450, 64
	k, pts := genTestSetup(t, n)
	comp, _ := CompressorByName("rsvd")
	factor := func(workers int) *Matrix {
		m := NewMatrix(n, nb, 1e-7)
		spec := &GenSpec{K: k, Pts: pts, Metric: geom.Euclidean, Nugget: 1e-6, Comp: comp}
		if err := GenCholesky(m, spec, workers); err != nil {
			t.Fatal(err)
		}
		return m
	}
	m1, mp := factor(1), factor(4)
	for i := 0; i < m1.MT; i++ {
		if !exactEqual(m1.Diag(i), mp.Diag(i)) {
			t.Fatalf("diagonal tile %d differs across worker counts", i)
		}
		for j := 0; j < i; j++ {
			a, b := m1.Off(i, j), mp.Off(i, j)
			if a.Rank() != b.Rank() || !exactEqual(a.U, b.U) || !exactEqual(a.V, b.V) {
				t.Fatalf("tile (%d,%d) differs across worker counts", i, j)
			}
		}
	}
}

// benchTiles returns the three tiles of a rank-28 TLR GEMM at nb = 128:
// C ← C − A·Bᵀ stacks two 128×56 factors for recompress.
func benchTiles() (c, a, b *CompTile) {
	r := rng.New(5)
	tile := func() *CompTile {
		return &CompTile{U: gradedFactor(r, 128, 28, 8), V: gradedFactor(r, 128, 28, 0)}
	}
	return tile(), tile(), tile()
}

func BenchmarkRecompress(b *testing.B) {
	c, a, _ := benchTiles()
	st := &CompTile{U: stack(c.U, a.U), V: stack(c.V, a.V)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recompressed(st, 1e-7)
	}
}

func BenchmarkGemmLL(b *testing.B) {
	c, a, bt := benchTiles()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GemmLL(c, a, bt, 1e-7, 0)
	}
}

// BenchmarkAddLowRank is an update as the Cholesky sweep meets it: a rank-28
// target with orthogonal bases and a rank-19 update of which half the
// directions lie in the span the target already has.
func BenchmarkAddLowRank(b *testing.B) {
	r := rng.New(6)
	c, _, _ := benchTiles()
	mix := func(base *la.Mat, decades float64) *la.Mat {
		out := gradedFactor(r, 128, 19, decades)
		coef := la.NewMat(28, 9)
		r.NormSlice(coef.Data)
		la.Gemm(0.1, base, la.NoTrans, coef, la.NoTrans, 0, out.View(0, 0, 128, 9))
		return out
	}
	x, y := mix(c.U, 6), mix(c.V, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AddLowRank(c, -1, x, y, 1e-7, 0)
	}
}

// BenchmarkBuildGenCholeskyGraph times construction of the fused
// generation + Cholesky DAG at mt=32 for both shells — the part of a
// session's set-up that builds the task graph: 6 512 tasks in tile's
// right-looking sweep for the tile shell, 560 for tlr's
// left-looking sweep, whose off-diagonal tasks read whole tile rows.
func BenchmarkBuildGenCholeskyGraph(b *testing.B) {
	const n, nb = 128, 4 // mt = 32
	var tasks int
	report := func(b *testing.B) {
		b.ReportMetric(float64(tasks), "tasks")
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*tasks), "ns/task")
	}
	b.Run("tile", func(b *testing.B) {
		m, spec := tile.NewSym(n, nb), &tile.GenSpec{}
		for i := 0; i < b.N; i++ {
			g, _ := tile.BuildGenCholeskyGraph(m, spec, true)
			tasks = g.Len()
		}
		report(b)
	})
	b.Run("tlr", func(b *testing.B) {
		m, spec := NewMatrix(n, nb, 1e-7), &GenSpec{}
		for i := 0; i < b.N; i++ {
			tasks = BuildGenCholeskyGraph(m, spec, true).Len()
		}
		report(b)
	})
}
