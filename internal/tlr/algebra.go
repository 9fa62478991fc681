package tlr

import (
	"math"

	"repro/internal/la"
	"repro/internal/obs"
)

// cntDenseTile counts DE fallbacks: compressed tiles that exceeded their
// rank budget during an update and were converted to exact dense storage.
var cntDenseTile = obs.GetCounter("tlr.detile.fallback")

// cntGeneral counts the low-rank updates that could not extend C's bases and
// were stacked and recompressed from scratch (see addLowRank).
var cntGeneral = obs.GetCounter("tlr.recompress.general")

const (
	// gramSlack is how far the Gram matrices of C's factors may be from
	// diagonal (U, relative to its column norms) and from the identity (V)
	// for the factors to serve as the bases of an update.
	gramSlack = 1e-11
	// basisShare is the share of tol·‖C′‖_F that each of the two basis
	// truncations of an update may spend; the SVD of the core gets the rest.
	basisShare = 0.02
)

// AddLowRank performs C ← recompress(C + alpha·X·Yᵀ, tol), the workhorse of
// TLR GEMM. X and Y must have the same number of columns (the update rank).
//
// A dense C absorbs the update exactly in place. A compressed result whose
// recompressed rank still exceeds maxRank (> 0) falls back to a dense (DE)
// tile built exactly from C and the update — graceful degradation instead of
// unbounded rank growth.
func AddLowRank(c *CompTile, alpha float64, x, y *la.Mat, tol float64, maxRank int) *CompTile {
	w := getWork()
	defer putWork(w)
	return addLowRank(w, c, alpha, x, y, tol, maxRank)
}

// addLowRank is AddLowRank with every temporary drawn from w (x and y may
// themselves be scratch of w).
//
// Every tile that leaves fromSVD, recompress or this function has V with
// orthonormal columns and U with mutually orthogonal ones, and only TrsmLD,
// which the factorization runs on a tile after its last update, ends that.
// An update therefore pays only for what it adds: extendBases splits X and Y
// against the bases C already has and orthogonalizes the remainder. A C that
// does not carry the invariant, or whose bases have no room for the update,
// is stacked with it and recompressed from scratch.
func addLowRank(w *la.Work, c *CompTile, alpha float64, x, y *la.Mat, tol float64, maxRank int) *CompTile {
	if x.Cols != y.Cols {
		panic("tlr: AddLowRank rank mismatch between X and Y")
	}
	m, n := c.Rows(), c.Cols()
	if x.Rows != m || y.Rows != n {
		panic("tlr: AddLowRank dimension mismatch")
	}
	kx := x.Cols
	if kx == 0 {
		return c // rank-0 update: C is unchanged
	}
	if c.IsDense() {
		la.Gemm(alpha, x, la.NoTrans, y, la.Transpose, 1, c.D)
		return c
	}
	out := extendBases(w, c, alpha, x, y, tol)
	if out == nil {
		cntGeneral.Inc()
		kc := c.Rank()
		u := w.Mat(m, kc+kx)
		v := w.Mat(n, kc+kx)
		for i := 0; i < m; i++ {
			ui := u.Row(i)
			copy(ui, c.U.Row(i))
			for j, xv := range x.Row(i) {
				ui[kc+j] = alpha * xv
			}
		}
		for i := 0; i < n; i++ {
			vi := v.Row(i)
			copy(vi, c.V.Row(i))
			copy(vi[kc:], y.Row(i))
		}
		out = recompress(w, u, v, tol)
	}
	if maxRank > 0 && out.Rank() > maxRank {
		// Exact, from the operands rather than the truncated result.
		d := c.Dense()
		la.Gemm(alpha, x, la.NoTrans, y, la.Transpose, 1, d)
		cntDenseTile.Inc()
		return NewDenseTile(d)
	}
	return out
}

// extendBases is the structured form of C + alpha·X·Yᵀ truncated to tol, for
// a compressed C = Û·diag(σ)·Vᵀ with Û and V orthonormal. It returns nil when
// C is not of that form — checked here on every call from the two Gram
// matrices, a function of the tile's entries alone — or when the tile has no
// rank, or no room for kc+kx orthonormal directions.
//
// With P = ÛᵀX, E = X − Û·P and Q = VᵀY, F = Y − V·Q (each projection applied
// twice, which leaves E ⟂ Û and F ⟂ V to rounding whatever the angle), and
// truncated pivoted QRs E ≈ Qe·Re, F ≈ Qf·Rf,
//
//	C + alpha·X·Yᵀ ≈ [Û Qe]·(diag(σ, 0) + alpha·[P; Re]·[Q; Rf]ᵀ)·[V Qf]ᵀ,
//
// so the SVD works on a core of kc+re by kc+rf instead of kc+kx squared, no
// Householder reflector is spent on the directions C already has, and the
// result carries the invariant on to the next update.
//
// The error budget tol·‖C′‖_F is split three ways. The leading kc×kc block of
// the core is C′ seen through the old bases, so its norm is a lower bound on
// ‖C′‖_F that is known before either QR. Each QR may discard basisShare of
// tol times that bound: the columns of E are weighted by the norms of the
// matching columns of Y (and F's by X's), so what the QR reports as discarded
// mass δ bounds the discarded term by ‖alpha·ΔE·Yᵀ‖_F ≤ |alpha|·√kx·δ. The
// SVD tail gets the remaining (1 − 2·basisShare)·tol. Remainders at the level
// of the rounding error of the projections are discarded whatever the budget:
// their directions are noise, not orthogonal to the bases.
func extendBases(w *la.Work, c *CompTile, alpha float64, x, y *la.Mat, tol float64) *CompTile {
	m, n, kc, kx := c.Rows(), c.Cols(), c.Rank(), x.Cols
	if kc == 0 || kc+kx > min(m, n) {
		return nil
	}
	gu, gv := w.Mat(kc, kc), w.Mat(kc, kc)
	la.Gemm(1, c.U, la.Transpose, c.U, la.NoTrans, 0, gu)
	la.Gemm(1, c.V, la.Transpose, c.V, la.NoTrans, 0, gv)
	sigma := w.Floats(kc)
	for i := range sigma {
		sigma[i] = math.Sqrt(gu.Data[i*kc+i])
		if !(sigma[i] > 0) {
			return nil
		}
	}
	for i := 0; i < kc; i++ {
		ui, vi := gu.Row(i), gv.Row(i)
		if !(math.Abs(vi[i]-1) <= gramSlack) {
			return nil
		}
		for j := 0; j < i; j++ {
			if !(math.Abs(ui[j]) <= gramSlack*sigma[i]*sigma[j] && math.Abs(vi[j]) <= gramSlack) {
				return nil
			}
		}
	}
	cntRecompress.Inc()

	uh := w.Mat(m, kc)
	for i := 0; i < m; i++ {
		ui, hi := c.U.Row(i), uh.Row(i)
		for j, s := range sigma {
			hi[j] = ui[j] / s
		}
	}
	p, e := splitOff(w, uh, x)
	q, f := splitOff(w, c.V, y)

	// k11 = diag(σ) + alpha·P·Qᵀ: C′ restricted to the bases C has.
	k11 := w.Mat(kc, kc)
	la.Gemm(alpha, p, la.NoTrans, q, la.Transpose, 0, k11)
	for i, s := range sigma {
		k11.Data[i*kc+i] += s
	}
	xn, yn := colNorms(w, x), colNorms(w, y)
	var noise, x2, y2 float64 // Σ‖x_j‖²‖y_j‖², ‖X‖_F², ‖Y‖_F²
	for j := range xn {
		xj, yj := xn[j]*xn[j], yn[j]*yn[j]
		noise += xj * yj
		x2 += xj
		y2 += yj
	}
	const eps = 0x1p-52
	cut := max(basisShare*tol*k11.FrobNorm()/(math.Abs(alpha)*math.Sqrt(float64(kx))), 32*eps*math.Sqrt(noise))
	qe, re := weightedQR(w, e, yn, cut)
	qf, rf := weightedQR(w, f, xn, cut)
	// E ⟂ Û holds column by column, relative to each column's norm; a basis
	// vector the QR draws from the small difference of larger columns is
	// orthogonal to Û only to that cancellation times ε. One projection of
	// the basis itself restores it, at a cost to QeᵀQe of that small number
	// squared.
	projectOut(w, qe, uh)
	projectOut(w, qf, c.V)
	ke, kf := kc+qe.Cols, kc+qf.Cols

	// core = diag(σ, 0) + alpha·[P; Re]·[Q; Rf]ᵀ
	l, r := w.Mat(ke, kx), w.Mat(kf, kx)
	l.View(0, 0, kc, kx).CopyFrom(p)
	l.View(kc, 0, ke-kc, kx).CopyFrom(re)
	r.View(0, 0, kc, kx).CopyFrom(q)
	r.View(kc, 0, kf-kc, kx).CopyFrom(rf)
	core := w.Mat(ke, kf)
	la.Gemm(alpha, l, la.NoTrans, r, la.Transpose, 0, core)
	var c2 float64
	for i, s := range sigma {
		core.Data[i*kf+i] += s
		c2 += s * s
	}
	// An update that cancels C leaves a core of rounding noise, which has no
	// scale of its own for a relative tolerance to act on (see recompress,
	// whose measure ‖[U αX]‖_F·‖[V Y]‖_F this is).
	if core.FrobNorm() <= float64(kc+kx)*eps*math.Sqrt((c2+alpha*alpha*x2)*(float64(kc)+y2)) {
		return &CompTile{U: la.NewMat(m, 0), V: la.NewMat(n, 0)}
	}
	svdTol := (1 - 2*basisShare) * tol
	cu, s, cv := la.SVDThin(w, core, svdTol)
	k := frobRank(s, svdTol)
	for i := 0; i < cu.Rows; i++ {
		ci := cu.Row(i)[:k]
		for j := range ci {
			ci[j] *= s[j]
		}
	}
	// U′ = [Û Qe]·(U_k·Σ_k), V′ = [V Qf]·V_k
	nu, nv := la.NewMat(m, k), la.NewMat(n, k)
	la.Gemm(1, uh, la.NoTrans, cu.View(0, 0, kc, k), la.NoTrans, 0, nu)
	la.Gemm(1, qe, la.NoTrans, cu.View(kc, 0, ke-kc, k), la.NoTrans, 1, nu)
	la.Gemm(1, c.V, la.NoTrans, cv.View(0, 0, kc, k), la.NoTrans, 0, nv)
	la.Gemm(1, qf, la.NoTrans, cv.View(kc, 0, kf-kc, k), la.NoTrans, 1, nv)
	return &CompTile{U: nu, V: nv}
}

// splitOff splits x against the orthonormal columns of b: x = b·p + e with
// e ⟂ b. The projection runs twice; the second pass removes what the
// rounding of the first left along b when x lies almost inside its span.
func splitOff(w *la.Work, b, x *la.Mat) (p, e *la.Mat) {
	p, e = w.Mat(b.Cols, x.Cols), w.Mat(x.Rows, x.Cols)
	e.CopyFrom(x)
	la.Gemm(1, b, la.Transpose, e, la.NoTrans, 0, p)
	la.Gemm(-1, b, la.NoTrans, p, la.NoTrans, 1, e)
	p2 := w.Mat(b.Cols, x.Cols)
	la.Gemm(1, b, la.Transpose, e, la.NoTrans, 0, p2)
	la.Gemm(-1, b, la.NoTrans, p2, la.NoTrans, 1, e)
	p.Add(p2)
	return p, e
}

// colNorms returns the Euclidean norms of the columns of a.
func colNorms(w *la.Work, a *la.Mat) []float64 {
	nrm := w.Floats(a.Cols)
	clear(nrm)
	for i := 0; i < a.Rows; i++ {
		for j, v := range a.Row(i) {
			nrm[j] += v * v
		}
	}
	for j, v := range nrm {
		nrm[j] = math.Sqrt(v)
	}
	return nrm
}

// weightedQR factors e ≈ q·r by la.QRPivotThin on e·diag(wt), so that the
// pivoting and the cut act on the weighted columns, and returns r for the
// unweighted e. e is overwritten. A column of weight zero meets nothing in
// the product it belongs to and gets a zero column of r.
func weightedQR(w *la.Work, e *la.Mat, wt []float64, cut float64) (q, r *la.Mat) {
	for i := 0; i < e.Rows; i++ {
		ei := e.Row(i)
		for j, s := range wt {
			ei[j] *= s
		}
	}
	q, r = la.QRPivotThin(w, e, cut)
	for i := 0; i < r.Rows; i++ {
		ri := r.Row(i)
		for j, s := range wt {
			if s != 0 {
				ri[j] /= s
			}
		}
	}
	return q, r
}

// termWidth is the inner width schurTerm writes A·Bᵀ at: the smaller rank of
// two compressed tiles, the rank of the compressed one beside a dense one,
// the shared dimension of two dense ones, and 0 when either has rank 0.
func termWidth(a, b *CompTile) int {
	switch {
	case a.Rank() == 0 || b.Rank() == 0:
		return 0
	case a.IsDense() && b.IsDense():
		return a.Cols()
	case a.IsDense():
		return b.Rank()
	case b.IsDense():
		return a.Rank()
	}
	return min(a.Rank(), b.Rank())
}

// schurTerm writes the product of two tiles of one tile column as
// A·Bᵀ = X·Yᵀ into x (A's rows) and y (B's rows), termWidth(a, b) columns
// each. Any temporary comes from w.
func schurTerm(w *la.Work, a, b *CompTile, x, y *la.Mat) {
	switch {
	case a.IsDense() && b.IsDense():
		x.CopyFrom(a.D)
		y.CopyFrom(b.D)
	case a.IsDense():
		// A·(Ub·Vbᵀ)ᵀ = (A·Vb)·Ubᵀ
		la.Gemm(1, a.D, la.NoTrans, b.V, la.NoTrans, 0, x)
		y.CopyFrom(b.U)
	case b.IsDense():
		// (Ua·Vaᵀ)·Bᵀ = Ua·(B·Va)ᵀ
		x.CopyFrom(a.U)
		la.Gemm(1, b.D, la.NoTrans, a.V, la.NoTrans, 0, y)
	default:
		// Ua·(Vaᵀ·Vb)·Ubᵀ, the core folded into the factor of the wider tile
		c := w.Mat(a.Rank(), b.Rank())
		la.Gemm(1, a.V, la.Transpose, b.V, la.NoTrans, 0, c)
		if a.Rank() <= b.Rank() {
			x.CopyFrom(a.U)
			la.Gemm(1, b.U, la.NoTrans, c, la.Transpose, 0, y)
		} else {
			la.Gemm(1, a.U, la.NoTrans, c, la.NoTrans, 0, x)
			y.CopyFrom(b.U)
		}
	}
}

// GemmLL computes C ← recompress(C − A·Bᵀ, tol) where A, B, C are TLR tiles:
// HiCMA's right-looking Schur-complement update of one trailing tile,
// C_ij −= A_ik·A_jkᵀ. The executed sweep does not call it (it subtracts a
// tile's whole update before compressing, gen.go); it is the kernel the
// machine model's FlopsGEMMComp prices and that bench/ times. Any operand may be
// a dense (DE) tile; a compressed C updated by two dense operands promotes
// to dense, since the product carries no low-rank structure to exploit.
// maxRank (> 0) bounds the rank growth of a compressed result via
// AddLowRank's DE fallback.
//
// A·Bᵀ is written as X·Yᵀ by schurTerm, the sweep's own Schur term, and
// added to C by addLowRank.
func GemmLL(c, a, b *CompTile, tol float64, maxRank int) *CompTile {
	if a.Cols() != b.Cols() {
		panic("tlr: GemmLL contraction dimension mismatch")
	}
	kw := termWidth(a, b)
	if kw == 0 {
		return c // a zero operand contributes nothing
	}
	if !c.IsDense() && a.IsDense() && b.IsDense() {
		cd := c.Dense()
		la.Gemm(-1, a.D, la.NoTrans, b.D, la.Transpose, 1, cd)
		cntDenseTile.Inc()
		return NewDenseTile(cd)
	}
	ws := getWork()
	defer putWork(ws)
	x, y := ws.Mat(a.Rows(), kw), ws.Mat(b.Rows(), kw)
	schurTerm(ws, a, b, x, y)
	return addLowRank(ws, c, -1, x, y, tol, maxRank)
}

// SyrkLD updates a dense diagonal tile from a panel tile:
// C ← C − A·Aᵀ = C − Ua·(Vaᵀ·Va)·Uaᵀ. Only the lower triangle of C is
// meaningful afterwards (matching la.Syrk semantics the dense path uses).
func SyrkLD(c *la.Mat, a *CompTile) {
	if a.IsDense() {
		la.Syrk(la.Lower, -1, a.D, la.NoTrans, 1, c)
		return
	}
	k := a.Rank()
	if k == 0 {
		return
	}
	ws := getWork()
	defer putWork(ws)
	w := ws.Mat(k, k)
	la.Gemm(1, a.V, la.Transpose, a.V, la.NoTrans, 0, w)
	t := ws.Mat(a.U.Rows, k)
	la.Gemm(1, a.U, la.NoTrans, w, la.NoTrans, 0, t)
	// C -= T·Uaᵀ; use full gemm then rely on lower-triangle readers.
	la.Gemm(-1, t, la.NoTrans, a.U, la.Transpose, 1, c)
}

// TrsmLD applies the panel triangular solve to a TLR tile:
// A_ik ← A_ik · L_kk^{-T}. For a compressed A = U·Vᵀ, only V changes:
// U·Vᵀ·L^{-T} = U·(L^{-1}·V)ᵀ, i.e. V ← L^{-1}·V; a dense tile is solved
// directly.
func TrsmLD(l *la.Mat, a *CompTile) {
	if a.IsDense() {
		la.Trsm(la.Right, la.Lower, la.Transpose, 1, l, a.D)
		return
	}
	if a.Rank() == 0 {
		return
	}
	la.Trsm(la.Left, la.Lower, la.NoTrans, 1, l, a.V)
}

// MatMul computes C += alpha·op(A)·B for a TLR tile A and a dense block B of
// r columns, op(A) being A (ta NoTrans) or Aᵀ = V·Uᵀ (Transpose). It is the
// one low-rank product: with r = 1 both la.Gemm calls run as matrix-vector
// products.
func MatMul(a *CompTile, ta la.Trans, alpha float64, b, c *la.Mat) {
	if a.IsDense() {
		la.Gemm(alpha, a.D, ta, b, la.NoTrans, 1, c)
		return
	}
	k := a.Rank()
	if k == 0 {
		return
	}
	u, v := a.U, a.V
	if ta == la.Transpose {
		u, v = v, u
	}
	tmp := la.NewMat(k, b.Cols)
	la.Gemm(1, v, la.Transpose, b, la.NoTrans, 0, tmp)
	la.Gemm(alpha, u, la.NoTrans, tmp, la.NoTrans, 1, c)
}
