package la

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randMat(rng *rand.Rand, r, c int) *Mat {
	m := NewMat(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// randSPD builds a well-conditioned SPD matrix A = B·Bᵀ + n·I.
func randSPD(rng *rand.Rand, n int) *Mat {
	b := randMat(rng, n, n)
	a := NewMat(n, n)
	Gemm(1, b, NoTrans, b, Transpose, 0, a)
	for i := 0; i < n; i++ {
		a.Set(i, i, a.At(i, i)+float64(n))
	}
	return a
}

func TestMatViewAliases(t *testing.T) {
	m := NewMat(4, 4)
	v := m.View(1, 1, 2, 2)
	v.Set(0, 0, 7)
	if m.At(1, 1) != 7 {
		t.Fatalf("view did not alias parent: got %g", m.At(1, 1))
	}
	if v.At(1, 1) != m.At(2, 2) {
		t.Fatalf("view offset wrong")
	}
}

func TestMatViewBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-bounds view")
		}
	}()
	NewMat(3, 3).View(2, 2, 2, 2)
}

func TestMatCloneIndependent(t *testing.T) {
	m := NewMat(2, 3)
	m.Set(1, 2, 5)
	c := m.Clone()
	c.Set(1, 2, 9)
	if m.At(1, 2) != 5 {
		t.Fatal("clone shares storage with original")
	}
}

func TestMatTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := randMat(rng, 3, 5)
	mt := m.T()
	for i := 0; i < 3; i++ {
		for j := 0; j < 5; j++ {
			if m.At(i, j) != mt.At(j, i) {
				t.Fatalf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
	if !m.T().T().Equalish(m, 0) {
		t.Fatal("double transpose is not identity")
	}
}

func TestMatAddSubScale(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randMat(rng, 4, 4)
	b := randMat(rng, 4, 4)
	c := a.Clone()
	c.Add(b)
	c.Sub(b)
	if !c.Equalish(a, 1e-14) {
		t.Fatal("add then sub did not round-trip")
	}
	c.Scale(2)
	c.Sub(a)
	if !c.Equalish(a, 1e-12) {
		t.Fatal("scale by 2 minus original should equal original")
	}
}

func TestSymmetrize(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := randMat(rng, 5, 5)
	m.Symmetrize()
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			if m.At(i, j) != m.At(j, i) {
				t.Fatalf("not symmetric at (%d,%d)", i, j)
			}
		}
	}
}

func TestGemmAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, ta := range []Trans{NoTrans, Transpose} {
		for _, tb := range []Trans{NoTrans, Transpose} {
			m, k, n := 7, 5, 6
			var a, b *Mat
			if ta == NoTrans {
				a = randMat(rng, m, k)
			} else {
				a = randMat(rng, k, m)
			}
			if tb == NoTrans {
				b = randMat(rng, k, n)
			} else {
				b = randMat(rng, n, k)
			}
			c := randMat(rng, m, n)
			want := NewMat(m, n)
			for i := 0; i < m; i++ {
				for j := 0; j < n; j++ {
					var s float64
					for p := 0; p < k; p++ {
						var av, bv float64
						if ta == Transpose {
							av = a.At(p, i)
						} else {
							av = a.At(i, p)
						}
						if tb == Transpose {
							bv = b.At(j, p)
						} else {
							bv = b.At(p, j)
						}
						s += av * bv
					}
					want.Set(i, j, 1.5*s+0.5*c.At(i, j))
				}
			}
			Gemm(1.5, a, ta, b, tb, 0.5, c)
			if !c.Equalish(want, 1e-12) {
				t.Fatalf("gemm mismatch for ta=%v tb=%v", ta, tb)
			}
		}
	}
}

func TestGemvMatchesGemm(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randMat(rng, 6, 4)
	x := make([]float64, 4)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	y := make([]float64, 6)
	Gemv(2, a, NoTrans, x, 0, y)
	want := NewMat(6, 1)
	Gemm(2, a, NoTrans, NewMatFrom(4, 1, x), NoTrans, 0, want)
	for i := range y {
		if math.Abs(y[i]-want.At(i, 0)) > 1e-13 {
			t.Fatalf("gemv mismatch at %d", i)
		}
	}
	// transposed
	yt := make([]float64, 4)
	xt := make([]float64, 6)
	for i := range xt {
		xt[i] = rng.NormFloat64()
	}
	Gemv(1, a, Transpose, xt, 0, yt)
	wantT := NewMat(4, 1)
	Gemm(1, a.T(), NoTrans, NewMatFrom(6, 1, xt), NoTrans, 0, wantT)
	for i := range yt {
		if math.Abs(yt[i]-wantT.At(i, 0)) > 1e-13 {
			t.Fatalf("gemv^T mismatch at %d", i)
		}
	}
}

func TestSyrkMatchesGemm(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := randMat(rng, 5, 3)
	c := randSPD(rng, 5)
	before := c.Clone()
	cRef := c.Clone()
	Syrk(Lower, -1, a, NoTrans, 1, c)
	Gemm(-1, a, NoTrans, a, Transpose, 1, cRef)
	for i := 0; i < 5; i++ {
		for j := 0; j <= i; j++ {
			if math.Abs(c.At(i, j)-cRef.At(i, j)) > 1e-12 {
				t.Fatalf("syrk lower mismatch at (%d,%d)", i, j)
			}
		}
		for j := i + 1; j < 5; j++ {
			if c.At(i, j) != before.At(i, j) {
				t.Fatalf("syrk modified upper triangle at (%d,%d)", i, j)
			}
		}
	}
}

func TestSyrkTransposed(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randMat(rng, 3, 5) // op(A) = AᵀA is 5x5
	c := NewMat(5, 5)
	Syrk(Lower, 1, a, Transpose, 0, c)
	want := NewMat(5, 5)
	Gemm(1, a, Transpose, a, NoTrans, 0, want)
	for i := 0; i < 5; i++ {
		for j := 0; j <= i; j++ {
			if math.Abs(c.At(i, j)-want.At(i, j)) > 1e-12 {
				t.Fatalf("syrk^T mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestSyrkUpper(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := randMat(rng, 4, 2)
	c := NewMat(4, 4)
	Syrk(Upper, 1, a, NoTrans, 0, c)
	want := NewMat(4, 4)
	Gemm(1, a, NoTrans, a, Transpose, 0, want)
	for i := 0; i < 4; i++ {
		for j := i; j < 4; j++ {
			if math.Abs(c.At(i, j)-want.At(i, j)) > 1e-12 {
				t.Fatalf("syrk upper mismatch at (%d,%d)", i, j)
			}
		}
		for j := 0; j < i; j++ {
			if c.At(i, j) != 0 {
				t.Fatalf("syrk upper touched lower triangle at (%d,%d)", i, j)
			}
		}
	}
}

func lowerFrom(rng *rand.Rand, n int) *Mat {
	l := NewMat(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			l.Set(i, j, rng.NormFloat64())
		}
		l.Set(i, i, 1+rng.Float64()) // well away from zero
	}
	return l
}

func TestTrsmAllVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 6
	for _, side := range []Side{Left, Right} {
		for _, uplo := range []Uplo{Lower, Upper} {
			for _, tr := range []Trans{NoTrans, Transpose} {
				var tri *Mat
				if uplo == Lower {
					tri = lowerFrom(rng, n)
				} else {
					tri = lowerFrom(rng, n).T()
				}
				var b *Mat
				if side == Left {
					b = randMat(rng, n, 4)
				} else {
					b = randMat(rng, 4, n)
				}
				x := b.Clone()
				Trsm(side, uplo, tr, 1, tri, x)
				// verify op(T)X = B or X op(T) = B
				check := x.Clone()
				RefTrmm(side, uplo, tr, 1, tri, check)
				if !check.Equalish(b, 1e-10) {
					t.Fatalf("trsm/trmm round trip failed side=%v uplo=%v trans=%v", side, uplo, tr)
				}
			}
		}
	}
}

func TestTrsmAlpha(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	tri := lowerFrom(rng, 5)
	b := randMat(rng, 5, 3)
	x1 := b.Clone()
	Trsm(Left, Lower, NoTrans, 2, tri, x1)
	x2 := b.Clone()
	x2.Scale(2)
	Trsm(Left, Lower, NoTrans, 1, tri, x2)
	if !x1.Equalish(x2, 1e-12) {
		t.Fatal("alpha scaling in trsm incorrect")
	}
}

func TestPotrfReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 2, 5, 17, 64, 65, 130} {
		a := randSPD(rng, n)
		l := a.Clone()
		if err := Potrf(l); err != nil {
			t.Fatalf("potrf failed for n=%d: %v", n, err)
		}
		// zero strict upper of l
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				l.Set(i, j, 0)
			}
		}
		rec := NewMat(n, n)
		Gemm(1, l, NoTrans, l, Transpose, 0, rec)
		diff := rec.Clone()
		diff.Sub(a)
		if diff.MaxAbs() > 1e-9*a.MaxAbs() {
			t.Fatalf("n=%d: ||LL^T - A|| = %g too large", n, diff.MaxAbs())
		}
	}
}

func TestPotrfMatchesUnblocked(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a := randSPD(rng, 97)
	l1 := a.Clone()
	l2 := a.Clone()
	if err := Potrf(l1); err != nil {
		t.Fatal(err)
	}
	if err := PotrfUnblocked(l2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 97; i++ {
		for j := 0; j <= i; j++ {
			if math.Abs(l1.At(i, j)-l2.At(i, j)) > 1e-9 {
				t.Fatalf("blocked vs unblocked mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestPotrfRejectsIndefinite(t *testing.T) {
	a := NewMatFrom(2, 2, []float64{1, 2, 2, 1}) // eigenvalues 3, -1
	if err := Potrf(a); err == nil {
		t.Fatal("expected ErrNotPositiveDefinite")
	}
}

// cholSolve solves A·x = b in place given the lower Cholesky factor L of A:
// Trsm on the n×1 block, forward with L then backward with Lᵀ.
func cholSolve(l *Mat, b []float64) {
	bm := NewMatFrom(len(b), 1, b)
	Trsm(Left, Lower, NoTrans, 1, l, bm)
	Trsm(Left, Lower, Transpose, 1, l, bm)
}

func TestCholSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	n := 40
	a := randSPD(rng, n)
	l := a.Clone()
	if err := Potrf(l); err != nil {
		t.Fatal(err)
	}
	xTrue := make([]float64, n)
	for i := range xTrue {
		xTrue[i] = rng.NormFloat64()
	}
	b := make([]float64, n)
	Gemv(1, a, NoTrans, xTrue, 0, b)
	cholSolve(l, b)
	for i := range b {
		if math.Abs(b[i]-xTrue[i]) > 1e-8 {
			t.Fatalf("cholsolve error at %d: %g vs %g", i, b[i], xTrue[i])
		}
	}
}

func TestLogDetFromChol(t *testing.T) {
	// diag(4, 9): |A| = 36, log = log 36; L = diag(2, 3)
	l := NewMatFrom(2, 2, []float64{2, 0, 0, 3})
	got := LogDetFromChol(l)
	want := math.Log(36)
	if math.Abs(got-want) > 1e-14 {
		t.Fatalf("logdet: got %g want %g", got, want)
	}
}

// kernelCase is one input of the QR/SVD property tests: the shapes TLR
// compression and recompression actually feed the two kernels, and the edge
// shapes around them.
type kernelCase struct {
	name string
	a    *Mat
	// sigma, when non-nil, holds the exact singular values of a.
	sigma []float64
}

// orthoCols returns an m×k matrix with orthonormal columns.
func orthoCols(rng *rand.Rand, m, k int) *Mat {
	q, _ := QRThin(nil, randMat(rng, m, k))
	return q
}

func kernelCases() []kernelCase {
	rng := rand.New(rand.NewSource(14))
	// A stacked recompression factor [U, αX]: 128×56 whose second half
	// repeats columns of the first, with two columns exactly zero.
	stacked := randMat(rng, 128, 56)
	for i := 0; i < 128; i++ {
		row := stacked.Row(i)
		for j := 28; j < 50; j++ {
			row[j] = -row[j-28]
		}
		row[7], row[55] = 0, 0
	}
	// A recompression core: 56×56, σ graded from 1 down to 1e-16.
	sigma := make([]float64, 56)
	u, v := orthoCols(rng, 56, 56), orthoCols(rng, 56, 56)
	for j := range sigma {
		sigma[j] = math.Pow(10, -16*float64(j)/55)
		for i := 0; i < 56; i++ {
			u.Set(i, j, u.At(i, j)*sigma[j])
		}
	}
	graded := NewMat(56, 56)
	Gemm(1, u, NoTrans, v, Transpose, 0, graded)
	cases := []kernelCase{
		{name: "stacked 128x56", a: stacked},
		{name: "graded core 56x56", a: graded, sigma: sigma},
		{name: "sketch 38x128", a: randMat(rng, 38, 128)},
		{name: "rank exceeds rows 128x140", a: randMat(rng, 128, 140)},
		{name: "zero 16x12", a: NewMat(16, 12)},
		{name: "1x1", a: NewMatFrom(1, 1, []float64{-3}), sigma: []float64{3}},
		{name: "no columns 5x0", a: NewMat(5, 0)},
		{name: "no rows 0x5", a: NewMat(0, 5)},
	}
	for _, d := range [][2]int{{8, 3}, {5, 5}, {20, 7}, {3, 8}, {64, 16}, {1, 5}, {5, 1}, {33, 17}, {1, 12}, {12, 1}} {
		cases = append(cases, kernelCase{name: "random", a: randMat(rng, d[0], d[1])})
	}
	// Spectra that separate an SVD from a good one: graded over fourteen
	// decades, repeated, clustered within 1e-12, and exactly rank-deficient.
	decay := make([]float64, 40)
	for j := range decay {
		decay[j] = math.Pow(10, -14*float64(j)/39)
	}
	repeated := make([]float64, 48)
	for j := range repeated {
		repeated[j] = []float64{1, 1e-3, 1e-9}[j/16]
	}
	clustered := make([]float64, 40)
	for j := range clustered {
		clustered[j] = 1 - 2.5e-14*float64(j)
	}
	deficient := make([]float64, 50)
	for j := 0; j < 20; j++ {
		deficient[j] = math.Pow(10, -3*float64(j)/19)
	}
	for _, c := range []struct {
		name  string
		m, n  int
		sigma []float64
	}{
		{"graded 1..1e-14 64x40", 64, 40, decay},
		{"graded 1..1e-14 40x64", 40, 64, decay},
		{"repeated 48x48", 48, 48, repeated},
		{"clustered 40x40", 40, 40, clustered},
		{"rank 20 of 60x50", 60, 50, deficient},
		{"largest census shape 128x74", 128, 74, decay[:20]},
	} {
		cases = append(cases, kernelCase{name: c.name, a: withSpectrum(rng, c.m, c.n, c.sigma), sigma: c.sigma})
	}
	for _, c := range censusShapes(rng) {
		cases = append(cases, kernelCase{name: c.name, a: c.a})
	}
	return cases
}

// withSpectrum returns U·diag(sigma)·Vᵀ for random U (m×k) and V (n×k) with
// orthonormal columns, k = len(sigma) ≤ min(m, n).
func withSpectrum(rng *rand.Rand, m, n int, sigma []float64) *Mat {
	k := len(sigma)
	u, v := orthoCols(rng, m, k), orthoCols(rng, n, k)
	for i := 0; i < m; i++ {
		for j, x := range sigma {
			u.Set(i, j, u.At(i, j)*x)
		}
	}
	a := NewMat(m, n)
	Gemm(1, u, NoTrans, v, Transpose, 0, a)
	return a
}

// censusShapes are inputs TLR feeds SVDThin, with spectra graded over twelve
// decades as a tile's are: cores of recompression and basis extension (40×40
// and 71×67 at nb = 128), the wide projection QᵀA of the randomized
// compressor (74×128), and that projection at nb = 512 (130×512).
func censusShapes(rng *rand.Rand) []kernelCase {
	var cases []kernelCase
	for _, d := range [][2]int{{40, 40}, {71, 67}, {74, 128}, {130, 512}} {
		k := min(d[0], d[1])
		sigma := make([]float64, k)
		for j := range sigma {
			sigma[j] = math.Pow(10, -12*float64(j)/float64(k-1))
		}
		cases = append(cases, kernelCase{name: fmt.Sprintf("census %dx%d", d[0], d[1]), a: withSpectrum(rng, d[0], d[1], sigma)})
	}
	return cases
}

// offIdentity returns ‖qᵀq − I‖_F.
func offIdentity(q *Mat) float64 {
	g := NewMat(q.Cols, q.Cols)
	Gemm(1, q, Transpose, q, NoTrans, 0, g)
	g.Sub(Eye(q.Cols))
	return g.FrobNorm()
}

func TestQRThinProperties(t *testing.T) {
	for _, tc := range kernelCases() {
		a := tc.a
		m, n := a.Rows, a.Cols
		k := min(m, n)
		before := a.Clone()
		q, r := QRThin(nil, a)
		if !a.Equalish(before, 0) {
			t.Fatalf("%s: input modified", tc.name)
		}
		if q.Rows != m || q.Cols != k || r.Rows != k || r.Cols != n {
			t.Fatalf("%s %dx%d: Q %dx%d R %dx%d", tc.name, m, n, q.Rows, q.Cols, r.Rows, r.Cols)
		}
		for i := 0; i < k; i++ {
			for j := 0; j < min(i, n); j++ {
				if r.At(i, j) != 0 {
					t.Fatalf("%s: R[%d][%d] = %g below the diagonal", tc.name, i, j, r.At(i, j))
				}
			}
		}
		if e := offIdentity(q); e > 1e-13 {
			t.Fatalf("%s %dx%d: ‖QᵀQ − I‖_F = %g", tc.name, m, n, e)
		}
		rec := NewMat(m, n)
		Gemm(1, q, NoTrans, r, NoTrans, 0, rec)
		rec.Sub(a)
		if e := rec.FrobNorm(); e > 1e-13*a.FrobNorm() {
			t.Fatalf("%s %dx%d: ‖A − QR‖_F = %g (‖A‖_F = %g)", tc.name, m, n, e, a.FrobNorm())
		}
	}
}

// The truncated pivoted QR: orthonormal Q, a residual within the cut (or at
// rounding level without one), R's columns in A's order, fewer columns kept
// with a cut than without, none for a matrix below it.
func TestQRPivotThinProperties(t *testing.T) {
	for _, tc := range kernelCases() {
		a := tc.a
		m, n := a.Rows, a.Cols
		if m < n {
			continue
		}
		aF := a.FrobNorm()
		before := a.Clone()
		full := -1
		for _, cut := range []float64{0, 1e-7 * aF, 2 * aF} {
			q, r := QRPivotThin(nil, a, cut)
			if !a.Equalish(before, 0) {
				t.Fatalf("%s: input modified", tc.name)
			}
			k := q.Cols
			if k > n || q.Rows != m || r.Rows != k || r.Cols != n {
				t.Fatalf("%s %dx%d cut %g: Q %dx%d R %dx%d", tc.name, m, n, cut, q.Rows, q.Cols, r.Rows, r.Cols)
			}
			if e := offIdentity(q); e > 1e-13 {
				t.Fatalf("%s cut %g: ‖QᵀQ − I‖_F = %g", tc.name, cut, e)
			}
			rec := NewMat(m, n)
			Gemm(1, q, NoTrans, r, NoTrans, 0, rec)
			rec.Sub(a)
			if e := rec.FrobNorm(); e > cut+1e-13*aF {
				t.Fatalf("%s %dx%d cut %g: ‖A − QR‖_F = %g (‖A‖_F = %g)", tc.name, m, n, cut, e, aF)
			}
			switch {
			case cut == 0:
				full = k
			case k > full:
				t.Fatalf("%s: cut %g kept %d columns, no cut %d", tc.name, cut, k, full)
			case cut > aF && k != 0:
				t.Fatalf("%s: kept %d columns of a matrix below the cut", tc.name, k)
			}
		}
		if len(tc.sigma) == 56 {
			// The graded core: σ falls a decade every 3.4 columns, so a cut
			// at 1e-7 keeps the 24 or so above it, not all 56.
			q, _ := QRPivotThin(nil, a, 1e-7*aF)
			if q.Cols < 20 || q.Cols > 30 {
				t.Fatalf("%s: cut 1e-7 kept %d columns", tc.name, q.Cols)
			}
		}
	}
}

// svdResidual returns ‖a − u·diag(s)·vᵀ‖_F.
func svdResidual(a, u *Mat, s []float64, v *Mat) float64 {
	us := u.Clone()
	for i := 0; i < us.Rows; i++ {
		for j, sj := range s {
			us.Set(i, j, us.At(i, j)*sj)
		}
	}
	rec := a.Clone()
	Gemm(-1, us, NoTrans, v, Transpose, 1, rec)
	return rec.FrobNorm()
}

func TestSVDThinProperties(t *testing.T) {
	noconv := cntSvdNoConv.Value()
	for _, tc := range kernelCases() {
		checkSVDThin(t, tc.name, tc.a, tc.sigma)
	}
	if d := cntSvdNoConv.Value() - noconv; d != 0 {
		t.Fatalf("bidiagonal QR ran out of iterations on %d inputs", d)
	}
}

// checkSVDThin holds SVDThin(a, tol) to its contract at tol 0, 1e-7 and
// 1e-5: U and V orthonormal to 1e-13 (a hundredth of what tlr's Gram check
// tolerates), s positive and descending, what is left out below
// svdDrop·tol·‖a‖_F plus rounding, the truncated values those of the full
// spectrum, and, where sigma gives it, that spectrum exact to 1e-14·‖a‖₂.
func checkSVDThin(t *testing.T, name string, a *Mat, sigma []float64) {
	t.Helper()
	m, n := a.Rows, a.Cols
	aF := a.FrobNorm()
	before := a.Clone()
	_, sFull, _ := SVDThin(nil, a, 0)
	for _, tol := range []float64{0, 1e-7, 1e-5} {
		u, s, v := SVDThin(nil, a, tol)
		if !a.Equalish(before, 0) {
			t.Fatalf("%s: input modified", name)
		}
		r := len(s)
		if r > min(m, n) || u.Rows != m || u.Cols != r || v.Rows != n || v.Cols != r {
			t.Fatalf("%s %dx%d tol %g: U %dx%d V %dx%d s %d", name, m, n, tol, u.Rows, u.Cols, v.Rows, v.Cols, r)
		}
		for i, x := range s {
			if x <= 0 || (i > 0 && x > s[i-1]) {
				t.Fatalf("%s tol %g: singular values not positive and descending: %v", name, tol, s)
			}
		}
		if e := offIdentity(u); e > 1e-13 {
			t.Fatalf("%s tol %g: ‖UᵀU − I‖_F = %g", name, tol, e)
		}
		if e := offIdentity(v); e > 1e-13 {
			t.Fatalf("%s tol %g: ‖VᵀV − I‖_F = %g", name, tol, e)
		}
		// What is left out is below ε·‖A‖₂ without a tolerance and below
		// svdDrop·tol·‖A‖_F with one.
		if e := svdResidual(a, u, s, v); e > (1e-13+svdDrop*tol)*aF {
			t.Fatalf("%s %dx%d tol %g: ‖A − UΣVᵀ‖_F = %g (‖A‖_F = %g)", name, m, n, tol, e, aF)
		}
		if r > len(sFull) {
			t.Fatalf("%s: tol %g kept %d directions, tol 0 kept %d", name, tol, r, len(sFull))
		}
		for i, x := range s {
			if math.Abs(x-sFull[i]) > (1e-13+svdDrop*tol)*aF {
				t.Fatalf("%s tol %g: σ[%d] = %g, untruncated %g", name, tol, i, x, sFull[i])
			}
		}
	}
	if aF == 0 && len(sFull) != 0 {
		t.Fatalf("%s: zero matrix has %d singular values", name, len(sFull))
	}
	// Exact spectrum, where known: relative to ‖A‖₂.
	for i, want := range sigma {
		got := 0.0
		if i < len(sFull) {
			got = sFull[i]
		}
		if math.Abs(got-want) > 1e-14*sigma[0] {
			t.Fatalf("%s: σ[%d] = %g want %g", name, i, got, want)
		}
	}
}

func TestSVDLowRankExact(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	// An exactly rank-3 12×10 matrix: the numerical rank SVDThin reports
	// without a tolerance is 3, give or take directions at rounding level.
	x := randMat(rng, 12, 3)
	y := randMat(rng, 10, 3)
	a := NewMat(12, 10)
	Gemm(1, x, NoTrans, y, Transpose, 0, a)
	_, s, _ := SVDThin(nil, a, 0)
	if len(s) < 3 || s[2] < 1e-10 {
		t.Fatalf("rank-3 matrix lost rank: %v", s)
	}
	for i := 3; i < len(s); i++ {
		if s[i] > 1e-14*s[0] {
			t.Fatalf("tail singular value %d = %g not negligible", i, s[i])
		}
	}
	if _, s, _ = SVDThin(nil, a, 1e-8); len(s) != 3 {
		t.Fatalf("with a tolerance the rank-3 matrix keeps %d directions", len(s))
	}
}

// FuzzSVDThin holds SVDThin to its contract on small matrices whose entries
// span 1e-150 … 1e150: two bytes give the shape (at most 12×12), then two
// bytes an entry, a signed mantissa and a decimal exponent. Squares of such
// entries are still finite, but only a scaled rotation generator and a rank
// cut taken relative to ‖a‖₂ keep every step of the SVD in range.
func FuzzSVDThin(f *testing.F) {
	f.Add([]byte{3, 3, 0x40, 150, 0x40, 150, 0x40, 150})
	f.Add([]byte{11, 7, 0x7f, 255, 0x81, 0, 0x10, 200, 0x22, 90, 0x7f, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		a := NewMat(int(data[0])%12+1, int(data[1])%12+1)
		data = data[2:]
		for i := range a.Data {
			if len(data) < 2 {
				break
			}
			a.Data[i] = float64(int8(data[0])) / 128 * math.Pow(10, float64(int(data[1])*300/255-150))
			data = data[2:]
		}
		checkSVDThin(t, "fuzz", a, nil)
	})
}

// Work hands out zeroed memory that stays valid until Reset, survives
// running out of arena, and stops allocating once it has seen the demand.
// TestWorkArena holds the arena to its contract: the slices of one round do
// not overlap and keep what is written to them until Reset, including those
// served from the heap while the arena is still growing; a warm arena hands
// the same storage out again without clearing it (its callers clear what
// they read before writing) and allocates nothing.
func TestWorkArena(t *testing.T) {
	w := new(Work)
	for round := 0; round < 3; round++ {
		a := w.Mat(7, 5)
		b := w.Floats(100)
		c := w.Ints(9)
		for i := range a.Data {
			a.Data[i] = float64(round*1000 + i)
		}
		if round > 0 && b[99] != float64(2*(round-1)) {
			t.Fatalf("round %d: warm arena did not hand back its storage as it was (b[99] = %v)", round, b[99])
		}
		for i := range b {
			b[i] = float64(2 * round)
		}
		for i := range c {
			c[i] = round
		}
		for i, v := range a.Data {
			if v != float64(round*1000+i) {
				t.Fatalf("round %d: matrix overwritten at %d by a later slice", round, i)
			}
		}
		if c[8] != round {
			t.Fatalf("round %d: index slice overwritten", round)
		}
		w.Reset()
	}
	if n := testing.AllocsPerRun(10, func() { w.Floats(135); w.Reset() }); n != 0 {
		t.Fatalf("warm arena allocates %v times per use", n)
	}
}

// A stacked 128×56 recompression factor, with a warm arena as tlr runs it.
func BenchmarkQRThin(b *testing.B) {
	a := kernelCases()[0].a
	w := new(Work)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		QRThin(w, a)
		w.Reset()
	}
}

// SVDThin at the shapes tlr feeds it, tol 1e-7, warm arena.
func BenchmarkSVDThin(b *testing.B) {
	for _, c := range censusShapes(rand.New(rand.NewSource(15))) {
		b.Run(fmt.Sprintf("%dx%d", c.a.Rows, c.a.Cols), func(b *testing.B) {
			w := new(Work)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				SVDThin(w, c.a, 1e-7)
				w.Reset()
			}
		})
	}
}

// The rotation and Householder inner loops at the length of a recompression
// core's rows.
func BenchmarkDot(b *testing.B) {
	x, y := kernelCases()[1].a.Row(0), kernelCases()[1].a.Row(1)
	var s float64
	for i := 0; i < b.N; i++ {
		s += dot(x, y)
	}
	sinkFloat = s
}

func BenchmarkRotate(b *testing.B) {
	x, y := kernelCases()[1].a.Row(0), kernelCases()[1].a.Row(1)
	for i := 0; i < b.N; i++ {
		rotate(0.8, 0.6, x, y)
	}
}

var sinkFloat float64

// Property: for random SPD matrices, solving against the Cholesky factor
// reproduces the right-hand side.
func TestQuickCholeskyInverseProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + int(math.Abs(float64(seed)))%20
		a := randSPD(r, n)
		l := a.Clone()
		if err := Potrf(l); err != nil {
			return false
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		b := make([]float64, n)
		Gemv(1, a, NoTrans, x, 0, b)
		cholSolve(l, b)
		for i := range b {
			if math.Abs(b[i]-x[i]) > 1e-6 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 25, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: Frobenius norm is invariant under transpose, and sub-multiplicative
// under Gemm within a generous constant.
func TestQuickNormProperties(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randMat(r, 5, 7)
		if math.Abs(a.FrobNorm()-a.T().FrobNorm()) > 1e-12 {
			return false
		}
		b := randMat(r, 7, 4)
		c := NewMat(5, 4)
		Gemm(1, a, NoTrans, b, NoTrans, 0, c)
		return c.FrobNorm() <= a.FrobNorm()*b.FrobNorm()+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
