package tlr

import (
	"math"
	"testing"

	"repro/internal/cov"
	"repro/internal/geom"
	"repro/internal/la"
	"repro/internal/obs"
	"repro/internal/rng"
)

func TestDenseTileBasics(t *testing.T) {
	d := covTile(t, 12, 10, 0.3)
	c := NewDenseTile(d.Clone())
	if !c.IsDense() {
		t.Fatal("NewDenseTile must report dense")
	}
	if c.Rows() != 12 || c.Cols() != 10 {
		t.Fatalf("dims %dx%d", c.Rows(), c.Cols())
	}
	if c.Rank() != 10 {
		t.Fatalf("dense rank = min dim, got %d", c.Rank())
	}
	if c.Bytes() != 12*10*8 {
		t.Fatalf("bytes %d", c.Bytes())
	}
	if diff := frobDiff(c.Dense(), d); diff != 0 {
		t.Fatalf("Dense() deviates by %g", diff)
	}
	// Dense() must copy — mutating the result may not corrupt the tile.
	c.Dense().Set(0, 0, 999)
	if c.D.At(0, 0) == 999 {
		t.Fatal("Dense() aliases the stored payload")
	}
	cl := c.Clone()
	cl.D.Set(0, 0, -5)
	if c.D.At(0, 0) == -5 {
		t.Fatal("Clone aliases the original")
	}
}

func TestMaxRankForcesDenseFallback(t *testing.T) {
	// A near-full-rank tile compressed under a tight tolerance exceeds a tiny
	// MaxRank cap; AddLowRank must fall back to an exact dense tile.
	x := covTile(t, 24, 24, 0.05)
	y := covTile(t, 24, 24, 0.07)
	c := CompressSVD(covTile(t, 24, 24, 0.4), 1e-10, 0, 0)

	before := obs.Default().Snapshot()
	got := AddLowRank(c, -1, x, y, 1e-12, 2)
	if !got.IsDense() {
		t.Fatalf("rank cap 2 should have forced a dense tile, got rank %d", got.Rank())
	}
	d := obs.Default().Snapshot().Sub(before)
	if d.Counters["tlr.detile.fallback"] < 1 {
		t.Fatalf("tlr.detile.fallback not incremented: %v", d.Counters)
	}

	// The fallback is exact: C - X·Yᵀ with no truncation at all.
	want := c.Dense()
	la.Gemm(-1, x, la.NoTrans, y, la.Transpose, 1, want)
	if diff := frobDiff(got.Dense(), want); diff > 1e-12 {
		t.Fatalf("dense fallback deviates from exact update by %g", diff)
	}
}

func TestGemmLLDenseOperandCombinations(t *testing.T) {
	// Every dense/compressed operand mix of the Schur update must agree with
	// the dense arithmetic.
	mk := func(dense bool, seed float64) *CompTile {
		m := covTile(t, 16, 16, 0.3+seed)
		if dense {
			return NewDenseTile(m.Clone())
		}
		return CompressSVD(m, 1e-12, 0, 0)
	}
	for _, tc := range []struct{ cd, ad, bd bool }{
		{true, true, true},
		{true, true, false},
		{true, false, true},
		{true, false, false},
		{false, true, true},
		{false, true, false},
		{false, false, true},
	} {
		c, a, b := mk(tc.cd, 0), mk(tc.ad, 0.1), mk(tc.bd, 0.2)
		want := c.Dense()
		la.Gemm(-1, a.Dense(), la.NoTrans, b.Dense(), la.Transpose, 1, want)
		got := GemmLL(c, a, b, 1e-12, 0)
		if diff := frobDiff(got.Dense(), want); diff > 1e-9 {
			t.Errorf("GemmLL c=%v a=%v b=%v deviates by %g", tc.cd, tc.ad, tc.bd, diff)
		}
	}
}

func TestDenseTileKernelOps(t *testing.T) {
	a := NewDenseTile(covTile(t, 16, 16, 0.3))
	ref := a.Dense()

	// TrsmLD: A ← A·L⁻ᵀ
	l := covTile(t, 16, 16, 0.2)
	cov.AddNugget(l, 20) // diagonally dominant → safe Potrf
	if err := la.Potrf(l); err != nil {
		t.Fatal(err)
	}
	TrsmLD(l, a)
	la.Trsm(la.Right, la.Lower, la.Transpose, 1, l, ref)
	if diff := frobDiff(a.D, ref); diff > 1e-10 {
		t.Fatalf("dense TrsmLD deviates by %g", diff)
	}

	// SyrkLD: C ← C − A·Aᵀ (lower triangle)
	cd := covTile(t, 16, 16, 0.5)
	want := cd.Clone()
	SyrkLD(cd, a)
	la.Syrk(la.Lower, -1, a.D, la.NoTrans, 1, want)
	for i := 0; i < 16; i++ {
		for j := 0; j <= i; j++ {
			if math.Abs(cd.At(i, j)-want.At(i, j)) > 1e-10 {
				t.Fatalf("dense SyrkLD deviates at (%d,%d)", i, j)
			}
		}
	}

	// One-column MatMul accumulates like the compressed path, both ways.
	x := make([]float64, 16)
	for i := range x {
		x[i] = math.Sin(float64(i))
	}
	y1 := make([]float64, 16)
	y2 := make([]float64, 16)
	MatMul(a, la.NoTrans, 2, la.NewMatFrom(16, 1, x), la.NewMatFrom(16, 1, y1))
	la.Gemv(2, a.D, la.NoTrans, x, 1, y2)
	for i := range y1 {
		if math.Abs(y1[i]-y2[i]) > 1e-12 {
			t.Fatalf("dense MatMul deviates at %d", i)
		}
	}
	y1 = make([]float64, 16)
	y2 = make([]float64, 16)
	MatMul(a, la.Transpose, -1, la.NewMatFrom(16, 1, x), la.NewMatFrom(16, 1, y1))
	la.Gemv(-1, a.D, la.Transpose, x, 1, y2)
	for i := range y1 {
		if math.Abs(y1[i]-y2[i]) > 1e-12 {
			t.Fatalf("dense transposed MatMul deviates at %d", i)
		}
	}
}

// TestCappedCholeskyMatchesDense runs the full TLR Cholesky with a MaxRank
// cap low enough to force DE fallbacks mid-factorization and checks the
// factor still matches the dense reference — degradation must cost memory,
// never correctness.
func TestCappedCholeskyMatchesDense(t *testing.T) {
	const (
		n   = 96
		nb  = 24
		tol = 1e-9
	)
	m, dense, pts := maternTLR(t, n, nb, 0.1, tol)
	_ = pts
	ref := dense.Clone()
	if err := la.Potrf(ref); err != nil {
		t.Fatal(err)
	}

	// Cap below the ranks the tight tolerance needs.
	maxR, _ := m.RankStats()
	if maxR < 3 {
		t.Skipf("problem too easy: max rank %d", maxR)
	}
	m.MaxRank = maxR - 2

	before := obs.Default().Snapshot()
	if err := Cholesky(m, 4); err != nil {
		t.Fatal(err)
	}
	d := obs.Default().Snapshot().Sub(before)
	if d.Counters["tlr.detile.fallback"] < 1 {
		t.Fatalf("cap %d never triggered a DE fallback", m.MaxRank)
	}

	got := m.ToDense()
	var worst float64
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			if diff := math.Abs(got.At(i, j) - ref.At(i, j)); diff > worst {
				worst = diff
			}
		}
	}
	if worst > 1e4*tol {
		t.Fatalf("capped factor deviation %g", worst)
	}
}

// TestForceMissGeneratesDenseTiles drives the chaos hook end to end through
// generation: the forced tiles come out dense and the factorization still
// matches the reference solve.
func TestForceMissGeneratesDenseTiles(t *testing.T) {
	const (
		n   = 96
		nb  = 16
		tol = 1e-7
	)
	r := rng.New(7)
	pts := geom.GeneratePerturbedGrid(n, r)
	pts = geom.ApplyPerm(pts, geom.MortonOrder(pts))
	k := cov.NewKernel(cov.Params{Variance: 1, Range: 0.1, Smoothness: 0.5})

	m := NewMatrix(n, nb, tol)
	forced := map[[2]int]bool{{3, 1}: true, {5, 0}: true}
	spec := &GenSpec{
		K: k, Pts: pts, Metric: geom.Euclidean, Nugget: 1e-9,
		Comp:      CompressSVD,
		ForceMiss: func(mt, i, j int) bool { return forced[[2]int{i, j}] },
	}
	if err := GenCholesky(m, spec, 2); err != nil {
		t.Fatal(err)
	}
	for ij := range forced {
		tile := m.Off(ij[0], ij[1])
		if !tile.IsDense() {
			t.Fatalf("tile %v should be a DE tile", ij)
		}
	}

	// The factor must still solve the system as well as an uncapped one.
	dense := la.NewMat(n, n)
	k.Matrix(dense, pts, geom.Euclidean)
	cov.AddNugget(dense, 1e-9)
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = math.Cos(float64(i) * 0.31)
	}
	want := append([]float64(nil), rhs...)
	if err := la.Potrf(dense); err != nil {
		t.Fatal(err)
	}
	denseSolveVec(dense, want)
	got := append([]float64(nil), rhs...)
	solveVec(m, got)
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-4*(1+math.Abs(want[i])) {
			t.Fatalf("solution[%d] = %g want %g", i, got[i], want[i])
		}
	}
}
