package la

import "math"

// Thin SVD for TLR compression: the sketch-sized projections QᵀA of the
// randomized compressor, one per off-diagonal tile — 66 per evaluation at
// n = 1500, nb = 128 (mean shape 45×128, widest about 100×128, mean kept
// rank 28 at 1e-7) — and the near-square cores of HODLR's recompressions and
// basis extensions.
//
// SVDThin is the Golub–Reinsch algorithm as LAPACK's dgesvd runs it, in three
// steps on X, the tall orientation of the input (m ≥ n):
//
//  1. When X is clearly tall (m ≥ 1.6·n) it is first reduced by the blocked
//     QRThin, X = Q·R, and the rest works on the n×n R.
//  2. Householder bidiagonalization X = Q_B·B·P_Bᵀ (dgebd2), on the
//     transposed copy so that every column of X is a contiguous row.
//  3. Implicit-shift bidiagonal QR (Golub–Kahan with Demmel–Kahan's zero
//     shift and relative convergence tests, dbdsqr) diagonalizes B; its
//     rotations go to contiguous rows of U_Bᵀ and V_Bᵀ through rotate.
//
// Only the r directions that are kept are carried back through the reflectors
// of Q_B and P_B (compact-WY, applyWY) and through Q.

// svdDrop ties the mass SVDThin may discard to the caller's tolerance: the
// smallest singular values are dropped while their Frobenius norm stays below
// svdDrop·tol·‖A‖_F. A rank chosen afterwards from the Frobenius tail of the
// returned singular values at tol is then the rank the full spectrum gives
// unless that tail lies within a factor 1+svdDrop² of the budget.
const svdDrop = 1e-3

// SVDThin computes a thin singular value decomposition a ≈ U·diag(s)·Vᵀ with
// U m×r, V n×r having orthonormal columns and s descending. a is not
// modified. tol > 0 declares that the caller discards whatever lies below
// tol·‖a‖_F: the part of a that is svdDrop times smaller still is left out,
// and r is the number of directions that remain. With tol = 0 only what lies
// below ε·‖a‖₂ is left out, so r is the numerical rank and r < min(m, n) for
// a rank-deficient a (r = 0 for a zero matrix). Results and temporaries come
// from w and live until w.Reset (nil w: heap).
func SVDThin(w *Work, a *Mat, tol float64) (u *Mat, s []float64, v *Mat) {
	cntSvd.Inc()
	// X is a when a is tall and aᵀ when it is wide; wt = Xᵀ holds the
	// columns of X as contiguous rows.
	m, n := a.Rows, a.Cols
	wide := m < n
	if wide {
		m, n = n, m
	}
	if n == 0 {
		u, s, v = w.Mat(m, 0), w.Floats(0), w.Mat(0, 0)
		if wide {
			return v, s, u
		}
		return u, s, v
	}
	wt := w.Mat(n, m)
	if wide {
		wt.CopyFrom(a)
	} else {
		wt.transposeFrom(a)
	}
	var q *Mat
	if 5*m >= 8*n {
		var r *Mat
		q, r = qrT(w, wt)
		wt = w.Mat(n, n)
		wt.transposeFrom(r)
	}
	p := wt.Cols

	d, e := w.Floats(n), w.Floats(n-1)
	tauq, taup := w.Floats(n), w.Floats(n-1)
	bidiagonalize(w, wt, d, e, tauq, taup)
	ub, vb := w.Mat(n, n), w.Mat(n, n)
	clear(ub.Data)
	clear(vb.Data)
	for i := 0; i < n; i++ {
		ub.Data[i*n+i] = 1
		vb.Data[i*n+i] = 1
	}
	bdsqr(d, e, ub, vb)

	// Singular values made positive (the sign goes to the right vector) and
	// ordered; the smallest are dropped while their tail stays within the cut.
	order := w.Ints(n)
	for i, x := range d {
		if x < 0 {
			d[i] = -x
			vi := vb.Row(i)
			for j := range vi {
				vi[j] = -vi[j]
			}
		}
		order[i] = i
	}
	for i := 1; i < n; i++ { // insertion sort, descending; n is small
		for j := i; j > 0 && d[order[j]] > d[order[j-1]]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	// The cut is taken relative to s₀ = ‖a‖₂, so that it neither underflows
	// for a tiny a nor overflows for a huge one.
	const eps = 0x1p-52
	r := n
	if s0 := d[order[0]]; s0 == 0 {
		r = 0
	} else {
		var total float64
		for _, x := range d {
			total += (x / s0) * (x / s0)
		}
		rel := svdDrop * tol
		cut2 := max(eps*eps, rel*rel*total)
		for tail := 0.0; r > 0; r-- {
			x := d[order[r-1]] / s0
			if tail+x*x > cut2 {
				break
			}
			tail += x * x
		}
	}

	// Kept directions of B, as rows: left ones padded to X's (or R's) length.
	s = w.Floats(r)
	ut, vt := w.Mat(r, p), w.Mat(r, n)
	clear(ut.Data)
	for jj, j := range order[:r] {
		s[jj] = d[j]
		copy(ut.Row(jj), ub.Row(j))
		copy(vt.Row(jj), vb.Row(j))
	}
	if r > 0 {
		// The right reflectors fill what lies left of wt's diagonal (G_j in
		// column j, from row j+1 on); moved out to the rows of vp, they leave
		// the left reflectors as the rows of wt.
		vp := w.Mat(n-1, n-1)
		clear(vp.Data)
		for c := 1; c < n; c++ {
			row := wt.Row(c)
			for j := 0; j < c; j++ {
				vp.Data[j*(n-1)+c-1] = row[j]
			}
			clear(row[:c])
		}
		for j := 0; j < n; j++ {
			wt.Data[j*p+j] = 1
		}
		applyWY(w, wt, tauq, ut)
		applyWY(w, vp, taup, vt.View(0, 1, r, n-1))
	}
	ux := w.Mat(m, r)
	if q != nil {
		Gemm(1, q, NoTrans, ut, Transpose, 0, ux)
	} else {
		ux.transposeFrom(ut)
	}
	vx := w.Mat(n, r)
	vx.transposeFrom(vt)
	if wide {
		return vx, s, ux
	}
	return ux, s, vx
}

// bidiagonalize reduces X (p×n, p ≥ n ≥ 1), held transposed in at, to upper
// bidiagonal form X = Q_B·B·P_Bᵀ, as LAPACK's dgebd2: d (n) is B's diagonal
// and e (n−1) its superdiagonal. Q_B = H₀⋯H_{n−1}, H_i = I − tauq[i]·v·vᵀ with
// v = (0…0, 1, at[i][i+1:]); P_B = G₀⋯G_{n−2}, G_i = I − taup[i]·u·uᵀ with u
// = (0…0, 1, at[i+2][i], …, at[n−1][i]), its 1 stored in at[i+1][i]. A column
// of X is a row of at, so H_i meets each column as one dot and one axpy, and
// G_i meets the rows as an axpy per column into w and one back. A
// dlabrd-blocked variant (panel reflectors accumulated and the trailing
// update left to Gemm) measured 1.5–2× slower at every n ≤ 130, the sizes TLR
// feeds this, and no faster at 256: its panel adds a dozen short vector
// operations per column to the two matrix-vector products that remain.
func bidiagonalize(w *Work, at *Mat, d, e, tauq, taup []float64) {
	n, p := at.Rows, at.Cols
	wv := w.Floats(p)
	ub := w.Floats(n)
	for i := 0; i < n; i++ {
		ai := at.Row(i)[i:]
		tauq[i] = house(ai)
		d[i] = ai[0]
		if i == n-1 {
			break
		}
		// H_i from the left on columns i+1..; then row i of A, gathered
		// from the column of at it lives in, gives G_i.
		if tauq[i] != 0 {
			ai[0] = 1
			for c := i + 1; c < n; c++ {
				reflect(ai, tauq[i], at.Row(c)[i:])
			}
		}
		u := ub[:n-i-1]
		for c := range u {
			u[c] = at.Row(i + 1 + c)[i]
		}
		taup[i] = house(u)
		e[i] = u[0]
		u[0] = 1
		for c, x := range u {
			at.Row(i + 1 + c)[i] = x
		}
		if taup[i] == 0 {
			continue
		}
		// A(i+1:, i+1:) ← A·G_i: w = A·u, then A ← A − τ·w·uᵀ.
		wr := wv[:p-i-1]
		clear(wr)
		for c, x := range u {
			axpy(x, at.Row(i + 1 + c)[i+1:], wr)
		}
		for c, x := range u {
			axpy(-taup[i]*x, wr, at.Row(i + 1 + c)[i+1:])
		}
	}
}

// applyWY replaces each row x of ut by H₀⋯H_{k−1}·x for the k reflectors held
// as the rows of vt (reflector j: zeros before column j, an explicit 1 at j,
// its tail after; H_j = I − tau[j]·v·vᵀ). The reflectors are applied a
// qrBlock panel at a time in compact-WY form, H_{j0}⋯H_{j0+b−1} = I − V·T·Vᵀ,
// last panel first: xᵀ ← xᵀ − ((xᵀ·V)·Tᵀ)·Vᵀ, three Gemm calls a panel.
func applyWY(w *Work, vt *Mat, tau []float64, ut *Mat) {
	k, p, r := vt.Rows, vt.Cols, ut.Rows
	if k == 0 || r == 0 {
		return
	}
	s1, s2 := w.Floats(r*qrBlock), w.Floats(r*qrBlock)
	for j0 := (k - 1) / qrBlock * qrBlock; j0 >= 0; j0 -= qrBlock {
		b := min(qrBlock, k-j0)
		t := w.Mat(b, b)
		formT(t, vt, j0, tau[j0:j0+b])
		vp := vt.View(j0, j0, b, p-j0)
		us := ut.View(0, j0, r, p-j0)
		w1, w2 := NewMatFrom(r, b, s1[:r*b]), NewMatFrom(r, b, s2[:r*b])
		Gemm(1, us, NoTrans, vp, Transpose, 0, w1)
		Gemm(1, w1, NoTrans, t, Transpose, 0, w2)
		Gemm(-1, w2, NoTrans, vp, NoTrans, 1, us)
	}
}

// bdsqrTol is dbdsqr's relative tolerance: max(10, min(100, ε^(−1/8)))·ε.
var bdsqrTol = max(10, min(100, math.Pow(0x1p-53, -0.125))) * 0x1p-53

// bdsqr diagonalizes the n×n upper bidiagonal B with diagonal d and
// superdiagonal e by implicit-shift QR, as LAPACK's dbdsqr does in its
// relative-accuracy mode, with an absolute floor on its split threshold:
// B = U_B·diag(d)·V_Bᵀ on return, d unsorted and of either sign, e
// overwritten. Each rotation is applied as it is generated, to rows of ut
// (which ends as U_Bᵀ·ut) and of vt (V_Bᵀ·vt). A run that spends dbdsqr's
// iteration budget is counted in la.svd.noconverge and returns what it has.
func bdsqr(d, e []float64, ut, vt *Mat) {
	n := len(d)
	if n <= 1 {
		return
	}
	const (
		eps    = 0x1p-53
		unfl   = 0x1p-1022
		maxitr = 6
	)
	tol := bdsqrTol
	// An off-diagonal entry is zero below a threshold set by a lower bound on
	// the smallest singular value (dbdsqr's) or by 16ε·max|B|, whichever is
	// larger: zeroing entries that small perturbs B by less than the
	// bidiagonalization's own rounding, and it deflates the tail of a graded
	// spectrum about a third sooner.
	sminoa := math.Abs(d[0])
	if sminoa != 0 {
		mu := sminoa
		for i := 1; i < n; i++ {
			mu = math.Abs(d[i]) * (mu / (mu + math.Abs(e[i-1])))
			sminoa = min(sminoa, mu)
			if sminoa == 0 {
				break
			}
		}
	}
	sminoa /= math.Sqrt(float64(n))
	var bmax float64
	for i := range d {
		bmax = max(bmax, math.Abs(d[i]))
	}
	for i := range e {
		bmax = max(bmax, math.Abs(e[i]))
	}
	thresh := max(tol*sminoa, 16*eps*bmax, maxitr*float64(n)*float64(n)*unfl)

	maxit := maxitr * n * n
	iter := 0
	oldll, oldm := -1, -1
	idir := 0
	// d[m] is the last entry of the part not yet converged.
	for m := n - 1; m > 0; {
		if iter > maxit {
			cntSvdNoConv.Inc()
			return
		}
		// The unreduced block d[ll..m]: every e[ll..m−1] is above thresh.
		smax := math.Abs(d[m])
		ll := 0
		for l := m - 1; l >= 0; l-- {
			abse := math.Abs(e[l])
			if !(abse > thresh) { // a NaN splits too, so that it cannot stall the loop
				e[l] = 0
				ll = l + 1
				break
			}
			smax = max(smax, math.Abs(d[l]), abse)
		}
		if ll == m {
			m--
			continue
		}
		if ll == m-1 {
			// A 2×2 block is diagonalized directly.
			sigmn, sigmx, sinr, cosr, sinl, cosl := lasv2(d[m-1], e[m-1], d[m])
			d[m-1], e[m-1], d[m] = sigmx, 0, sigmn
			rotate(cosr, -sinr, vt.Row(m-1), vt.Row(m))
			rotate(cosl, -sinl, ut.Row(m-1), ut.Row(m))
			m -= 2
			continue
		}
		// A new block is chased from its larger end towards its smaller.
		if ll > oldm || m < oldll {
			if math.Abs(d[ll]) >= math.Abs(d[m]) {
				idir = 1
			} else {
				idir = 2
			}
		}
		// Convergence tests: the far end, then the relative test along the
		// block, which also estimates the smallest singular value.
		var sminl float64
		split := false
		if idir == 1 {
			if math.Abs(e[m-1]) <= tol*math.Abs(d[m]) {
				e[m-1] = 0
				continue
			}
			mu := math.Abs(d[ll])
			sminl = mu
			for l := ll; l < m; l++ {
				if math.Abs(e[l]) <= tol*mu {
					e[l] = 0
					split = true
					break
				}
				mu = math.Abs(d[l+1]) * (mu / (mu + math.Abs(e[l])))
				sminl = min(sminl, mu)
			}
		} else {
			if math.Abs(e[ll]) <= tol*math.Abs(d[ll]) {
				e[ll] = 0
				continue
			}
			mu := math.Abs(d[m])
			sminl = mu
			for l := m - 1; l >= ll; l-- {
				if math.Abs(e[l]) <= tol*mu {
					e[l] = 0
					split = true
					break
				}
				mu = math.Abs(d[l]) * (mu / (mu + math.Abs(e[l])))
				sminl = min(sminl, mu)
			}
		}
		if split {
			continue
		}
		oldll, oldm = ll, m

		// The shift: zero where a shift would spoil the relative accuracy of
		// the smallest singular value, else the smaller singular value of
		// the trailing (or leading) 2×2.
		var shift float64
		if float64(n)*tol*(sminl/smax) > max(eps, 0.01*tol) {
			var sll float64
			if idir == 1 {
				sll = math.Abs(d[ll])
				shift, _ = las2(d[m-1], e[m-1], d[m])
			} else {
				sll = math.Abs(d[m])
				shift, _ = las2(d[ll], e[ll], d[ll+1])
			}
			if sll > 0 && (shift/sll)*(shift/sll) < eps {
				shift = 0
			}
		}
		iter += m - ll

		switch {
		case shift == 0 && idir == 1:
			cs, oldcs := 1.0, 1.0
			var sn, oldsn, r float64
			for i := ll; i < m; i++ {
				cs, sn, r = lartg(d[i]*cs, e[i])
				if i > ll {
					e[i-1] = oldsn * r
				}
				oldcs, oldsn, d[i] = lartg(oldcs*r, d[i+1]*sn)
				rotate(cs, -sn, vt.Row(i), vt.Row(i+1))
				rotate(oldcs, -oldsn, ut.Row(i), ut.Row(i+1))
			}
			h := d[m] * cs
			d[m], e[m-1] = h*oldcs, h*oldsn
			if math.Abs(e[m-1]) <= thresh {
				e[m-1] = 0
			}
		case shift == 0:
			cs, oldcs := 1.0, 1.0
			var sn, oldsn, r float64
			for i := m; i > ll; i-- {
				cs, sn, r = lartg(d[i]*cs, e[i-1])
				if i < m {
					e[i] = oldsn * r
				}
				oldcs, oldsn, d[i] = lartg(oldcs*r, d[i-1]*sn)
				rotate(oldcs, oldsn, vt.Row(i-1), vt.Row(i))
				rotate(cs, sn, ut.Row(i-1), ut.Row(i))
			}
			h := d[ll] * cs
			d[ll], e[ll] = h*oldcs, h*oldsn
			if math.Abs(e[ll]) <= thresh {
				e[ll] = 0
			}
		case idir == 1:
			f := (math.Abs(d[ll]) - shift) * (math.Copysign(1, d[ll]) + shift/d[ll])
			g := e[ll]
			for i := ll; i < m; i++ {
				cosr, sinr, r := lartg(f, g)
				if i > ll {
					e[i-1] = r
				}
				f = cosr*d[i] + sinr*e[i]
				e[i] = cosr*e[i] - sinr*d[i]
				g = sinr * d[i+1]
				d[i+1] *= cosr
				cosl, sinl, r := lartg(f, g)
				d[i] = r
				f = cosl*e[i] + sinl*d[i+1]
				d[i+1] = cosl*d[i+1] - sinl*e[i]
				if i < m-1 {
					g = sinl * e[i+1]
					e[i+1] *= cosl
				}
				rotate(cosr, -sinr, vt.Row(i), vt.Row(i+1))
				rotate(cosl, -sinl, ut.Row(i), ut.Row(i+1))
			}
			e[m-1] = f
			if math.Abs(e[m-1]) <= thresh {
				e[m-1] = 0
			}
		default:
			f := (math.Abs(d[m]) - shift) * (math.Copysign(1, d[m]) + shift/d[m])
			g := e[m-1]
			for i := m; i > ll; i-- {
				cosr, sinr, r := lartg(f, g)
				if i < m {
					e[i] = r
				}
				f = cosr*d[i] + sinr*e[i-1]
				e[i-1] = cosr*e[i-1] - sinr*d[i]
				g = sinr * d[i-1]
				d[i-1] *= cosr
				cosl, sinl, r := lartg(f, g)
				d[i] = r
				f = cosl*e[i-1] + sinl*d[i-1]
				d[i-1] = cosl*d[i-1] - sinl*e[i-1]
				if i > ll+1 {
					g = sinl * e[i-2]
					e[i-2] *= cosl
				}
				rotate(cosl, sinl, vt.Row(i-1), vt.Row(i))
				rotate(cosr, sinr, ut.Row(i-1), ut.Row(i))
			}
			e[ll] = f
			if math.Abs(e[ll]) <= thresh {
				e[ll] = 0
			}
		}
	}
}

// lartg returns the plane rotation [c s; −s c] with [c s; −s c]·(f, g) =
// (r, 0), LAPACK 3.10's dlartg: the square root is taken unscaled where f
// and g are safely inside the exponent range and of f and g divided by the
// larger of the two otherwise, so that f² + g² neither overflows nor loses
// its digits to underflow.
func lartg(f, g float64) (c, s, r float64) {
	const (
		safmin = 0x1p-1022
		safmax = 0x1p1022
		rtmin  = 0x1p-511
	)
	rtmax := math.Sqrt(safmax / 2)
	switch {
	case g == 0:
		return 1, 0, f
	case f == 0:
		return 0, math.Copysign(1, g), math.Abs(g)
	}
	f1, g1 := math.Abs(f), math.Abs(g)
	if f1 > rtmin && f1 < rtmax && g1 > rtmin && g1 < rtmax {
		d := math.Sqrt(f*f + g*g)
		r = math.Copysign(d, f)
		return f1 / d, g / r, r
	}
	u := min(safmax, max(safmin, f1, g1))
	fs, gs := f/u, g/u
	d := math.Sqrt(fs*fs + gs*gs)
	r = math.Copysign(d, f)
	return math.Abs(fs) / d, gs / r, r * u
}

// las2 returns the singular values of the 2×2 upper triangular [f g; 0 h]
// (LAPACK's dlas2), without overflow or needless underflow.
func las2(f, g, h float64) (ssmin, ssmax float64) {
	fa, ga, ha := math.Abs(f), math.Abs(g), math.Abs(h)
	fhmn, fhmx := min(fa, ha), max(fa, ha)
	switch {
	case fhmn == 0:
		if fhmx == 0 {
			return 0, ga
		}
		lo, hi := min(fhmx, ga), max(fhmx, ga)
		return 0, hi * math.Sqrt(1+(lo/hi)*(lo/hi))
	case ga < fhmx:
		as := 1 + fhmn/fhmx
		at := (fhmx - fhmn) / fhmx
		au := (ga / fhmx) * (ga / fhmx)
		c := 2 / (math.Sqrt(as*as+au) + math.Sqrt(at*at+au))
		return fhmn * c, fhmx / c
	}
	au := fhmx / ga
	if au == 0 {
		return (fhmn * fhmx) / ga, ga
	}
	as := 1 + fhmn/fhmx
	at := (fhmx - fhmn) / fhmx
	c := 1 / (math.Sqrt(1+(as*au)*(as*au)) + math.Sqrt(1+(at*au)*(at*au)))
	ssmin = (fhmn * c) * au
	return ssmin + ssmin, ga / (c + c)
}

// lasv2 computes the SVD of the 2×2 upper triangular [f g; 0 h] (LAPACK's
// dlasv2): [csl snl; −snl csl]·[f g; 0 h]·[csr −snr; snr csr] =
// diag(ssmax, ssmin), |ssmax| ≥ |ssmin|.
func lasv2(f, g, h float64) (ssmin, ssmax, snr, csr, snl, csl float64) {
	const eps = 0x1p-53
	ft, fa, ht, ha := f, math.Abs(f), h, math.Abs(h)
	// pmax names the entry of largest magnitude: 1 f, 2 g, 3 h.
	pmax := 1
	swap := ha > fa
	if swap {
		pmax = 3
		ft, ht = ht, ft
		fa, ha = ha, fa
	}
	gt, ga := g, math.Abs(g)
	var clt, crt, slt, srt float64
	if ga == 0 {
		ssmin, ssmax = ha, fa
		clt, crt = 1, 1
	} else {
		gasmal := true
		if ga > fa {
			pmax = 2
			if fa/ga < eps {
				// A g this large makes the rest rounding noise.
				gasmal = false
				ssmax = ga
				if ha > 1 {
					ssmin = fa / (ga / ha)
				} else {
					ssmin = (fa / ga) * ha
				}
				clt, slt = 1, ht/gt
				srt, crt = 1, ft/gt
			}
		}
		if gasmal {
			dd := fa - ha
			l := 1.0
			if dd != fa {
				l = dd / fa
			}
			mm := gt / ft
			t := 2 - l
			mm2, tt := mm*mm, t*t
			s := math.Sqrt(tt + mm2)
			r := math.Abs(mm)
			if l != 0 {
				r = math.Sqrt(l*l + mm2)
			}
			a := 0.5 * (s + r)
			ssmin, ssmax = ha/a, fa*a
			switch {
			case mm2 != 0:
				t = (mm/(s+t) + mm/(r+l)) * (1 + a)
			case l == 0:
				t = math.Copysign(2, ft) * math.Copysign(1, gt)
			default:
				t = gt/math.Copysign(dd, ft) + mm/t
			}
			l = math.Sqrt(t*t + 4)
			crt, srt = 2/l, t/l
			clt = (crt + srt*mm) / a
			slt = (ht / ft) * srt / a
		}
	}
	if swap {
		csl, snl, csr, snr = srt, crt, slt, clt
	} else {
		csl, snl, csr, snr = clt, slt, crt, srt
	}
	// The signs of ssmax and ssmin follow from the rotations and the entry
	// of largest magnitude.
	var tsign float64
	switch pmax {
	case 1:
		tsign = math.Copysign(1, csr) * math.Copysign(1, csl) * math.Copysign(1, f)
	case 2:
		tsign = math.Copysign(1, snr) * math.Copysign(1, csl) * math.Copysign(1, g)
	default:
		tsign = math.Copysign(1, snr) * math.Copysign(1, snl) * math.Copysign(1, h)
	}
	ssmax = math.Copysign(ssmax, tsign)
	ssmin = math.Copysign(ssmin, tsign*math.Copysign(1, f)*math.Copysign(1, h))
	return ssmin, ssmax, snr, csr, snl, csl
}

// QRPivotThin computes a truncated column-pivoted QR of the m×n matrix a
// (m ≥ n): a ≈ Q·R with Q m×r having orthonormal columns, R r×n with its
// columns in a's order (so not triangular), and ‖a − Q·R‖_F ≤ cut. The
// pivoting takes the heaviest remaining column at each step and the
// factorization stops as soon as the columns still to be reduced hold no more
// than cut, or no more than ε times the heaviest column of a, in Frobenius
// norm: r = 0 for a matrix that small. It is the basis-extension step of a
// structured low-rank update (tlr), which orthogonalizes only the part of an
// update its tile does not span yet. a is not modified. Results and
// temporaries come from w and live until w.Reset (nil w: heap).
func QRPivotThin(w *Work, a *Mat, cut float64) (q, r *Mat) {
	m, n := a.Rows, a.Cols
	if m < n {
		panic("la: QRPivotThin of a wide matrix")
	}
	wt := w.Mat(n, m)
	wt.transposeFrom(a)
	tau := w.Floats(n)
	perm := w.Ints(n)
	k := qrcp(wt, tau, perm, cut)

	r = leadingRowsOfR(w, wt, k, perm)
	// Column j of Q is H₀⋯H_{k−1}·e_j: row j of qt, once row i of wt holds
	// reflector i in full.
	for i := 0; i < k; i++ {
		row := wt.Row(i)
		clear(row[:i])
		row[i] = 1
	}
	qt := w.Mat(k, m)
	clear(qt.Data)
	for j := 0; j < k; j++ {
		qt.Data[j*m+j] = 1
	}
	applyWY(w, wt.View(0, 0, k, m), tau, qt)
	q = w.Mat(m, k)
	q.transposeFrom(qt)
	return q, r
}

// qrcp factors X·P = Q·R by Householder QR with column pivoting, in place on
// wt = Xᵀ (n rows of length m ≥ n), and stops at the first step r where the
// rows of R still to come hold no more Frobenius mass than cut or than ε
// times the heaviest column. On return rows < r of R sit in wt[c][:r],
// reflector i's tail in wt[i][i+1:], and column c of X·P is column perm[c] of
// X.
func qrcp(wt *Mat, tau []float64, perm []int, cut float64) (r int) {
	n := wt.Rows
	for c := range perm {
		perm[c] = c
	}
	var cut2 float64
	for j := 0; j < n; j++ {
		// Squared norms of the remaining columns below row j: the largest
		// is the pivot, and their sum is exactly the squared Frobenius norm
		// of rows j.. of R.
		var mass, best float64
		pivot := j
		for c := j; c < n; c++ {
			x := wt.Row(c)[j:]
			ss := dot(x, x)
			mass += ss
			if ss > best {
				best, pivot = ss, c
			}
		}
		if j == 0 {
			const eps = 0x1p-52
			cut2 = max(eps*eps*best, cut*cut)
		}
		if mass <= cut2 {
			return j
		}
		if pivot != j {
			rj, rp := wt.Row(j), wt.Row(pivot)
			for i, x := range rj {
				rj[i], rp[i] = rp[i], x
			}
			perm[j], perm[pivot] = perm[pivot], perm[j]
		}
		col := wt.Row(j)[j:]
		tau[j] = house(col)
		if tau[j] == 0 {
			continue
		}
		beta := col[0]
		col[0] = 1
		for c := j + 1; c < n; c++ {
			reflect(col, tau[j], wt.Row(c)[j:])
		}
		col[0] = beta
	}
	return n
}

// rotate applies the plane rotation (x, y) ← (c·x − s·y, s·x + c·y) to two
// slices that do not overlap (the vector body loads eight elements of each
// before it stores any). See dot for the choice of body.
func rotate(c, s float64, x, y []float64) {
	y = y[:len(x)]
	if useFMAKernel && len(x) >= vecMin {
		rotateFMA(c, s, &x[0], &y[0], len(x))
		return
	}
	for i, xi := range x {
		yi := y[i]
		x[i] = c*xi - s*yi
		y[i] = s*xi + c*yi
	}
}
