package tlr

import (
	"repro/internal/la"
	"repro/internal/obs"
)

// cntDenseTile counts DE fallbacks: compressed tiles that exceeded their
// rank budget during an update and were converted to exact dense storage.
var cntDenseTile = obs.GetCounter("tlr.detile.fallback")

// AddLowRank performs C ← recompress(C + alpha·X·Yᵀ, tol), the workhorse of
// TLR GEMM. X and Y must have the same number of columns (the update rank).
// The recompression is the QR+SVD scheme: stack the factors, orthogonalize,
// and truncate the small core back to the accuracy threshold.
//
// A dense C absorbs the update exactly in place. A compressed result whose
// recompressed rank still exceeds maxRank (> 0) falls back to a dense (DE)
// tile built exactly from the stacked factors — graceful degradation instead
// of unbounded rank growth.
func AddLowRank(c *CompTile, alpha float64, x, y *la.Mat, tol float64, maxRank int) *CompTile {
	w := getWork()
	defer putWork(w)
	return addLowRank(w, c, alpha, x, y, tol, maxRank)
}

// addLowRank is AddLowRank with the stacked factors and the recompression
// drawn from w (x and y may themselves be scratch of w).
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
	out := recompress(w, u, v, tol)
	if maxRank > 0 && out.Rank() > maxRank {
		// Exact reconstruction from the untruncated stacked factors, not
		// from the recompressed tile — the fallback loses nothing.
		d := la.NewMat(m, n)
		la.Gemm(1, u, la.NoTrans, v, la.Transpose, 0, d)
		cntDenseTile.Inc()
		return NewDenseTile(d)
	}
	return out
}

// gemmIntoDense applies C.D ← C.D − A·Bᵀ for a dense accumulator and any mix
// of dense/compressed operands.
func gemmIntoDense(cd *la.Mat, a, b *CompTile) {
	switch {
	case a.IsDense() && b.IsDense():
		la.Gemm(-1, a.D, la.NoTrans, b.D, la.Transpose, 1, cd)
	case a.IsDense():
		// A·(Ub·Vbᵀ)ᵀ = (A·Vb)·Ubᵀ
		t := la.NewMat(a.D.Rows, b.Rank())
		la.Gemm(1, a.D, la.NoTrans, b.V, la.NoTrans, 0, t)
		la.Gemm(-1, t, la.NoTrans, b.U, la.Transpose, 1, cd)
	case b.IsDense():
		// (Ua·Vaᵀ)·Bᵀ = Ua·(B·Va)ᵀ
		t := la.NewMat(b.D.Rows, a.Rank())
		la.Gemm(1, b.D, la.NoTrans, a.V, la.NoTrans, 0, t)
		la.Gemm(-1, a.U, la.NoTrans, t, la.Transpose, 1, cd)
	default:
		// Ua·(Vaᵀ·Vb)·Ubᵀ
		w := la.NewMat(a.Rank(), b.Rank())
		la.Gemm(1, a.V, la.Transpose, b.V, la.NoTrans, 0, w)
		t := la.NewMat(a.U.Rows, b.Rank())
		la.Gemm(1, a.U, la.NoTrans, w, la.NoTrans, 0, t)
		la.Gemm(-1, t, la.NoTrans, b.U, la.Transpose, 1, cd)
	}
}

// GemmLL computes C ← recompress(C − A·Bᵀ, tol) where A, B, C are TLR tiles
// (the TLR Schur-complement update of the Cholesky trailing submatrix:
// C_ij −= A_ik·A_jkᵀ). Any operand may be a dense (DE) tile; a compressed C
// updated by two dense operands promotes to dense, since the product carries
// no low-rank structure to exploit. maxRank (> 0) bounds the rank growth of
// a compressed result via AddLowRank's DE fallback.
//
// The product of two low-rank tiles is itself low-rank:
// (Ua·Vaᵀ)(Ub·Vbᵀ)ᵀ = Ua·(Vaᵀ·Vb)·Ubᵀ, with rank min(ka, kb).
func GemmLL(c, a, b *CompTile, tol float64, maxRank int) *CompTile {
	if a.Cols() != b.Cols() {
		panic("tlr: GemmLL contraction dimension mismatch")
	}
	if !a.IsDense() && a.Rank() == 0 {
		return c // a zero operand contributes nothing
	}
	if !b.IsDense() && b.Rank() == 0 {
		return c
	}
	if c.IsDense() {
		gemmIntoDense(c.D, a, b)
		return c
	}
	if a.IsDense() && b.IsDense() {
		cd := c.Dense()
		la.Gemm(-1, a.D, la.NoTrans, b.D, la.Transpose, 1, cd)
		cntDenseTile.Inc()
		return NewDenseTile(cd)
	}
	ws := getWork()
	defer putWork(ws)
	var x, y *la.Mat
	switch {
	case a.IsDense():
		// A·(Ub·Vbᵀ)ᵀ = (A·Vb)·Ubᵀ — rank kb update.
		x = ws.Mat(a.D.Rows, b.Rank())
		la.Gemm(1, a.D, la.NoTrans, b.V, la.NoTrans, 0, x)
		y = b.U
	case b.IsDense():
		// (Ua·Vaᵀ)·Bᵀ = Ua·(B·Va)ᵀ — rank ka update.
		x = a.U
		y = ws.Mat(b.D.Rows, a.Rank())
		la.Gemm(1, b.D, la.NoTrans, a.V, la.NoTrans, 0, y)
	default:
		ka, kb := a.Rank(), b.Rank()
		// W = Vaᵀ·Vb  (ka×kb) — both share the contraction dimension.
		w := ws.Mat(ka, kb)
		la.Gemm(1, a.V, la.Transpose, b.V, la.NoTrans, 0, w)
		if ka <= kb {
			// X = Ua, Y = Ub·Wᵀ (rank ka)
			x = a.U
			y = ws.Mat(b.U.Rows, ka)
			la.Gemm(1, b.U, la.NoTrans, w, la.Transpose, 0, y)
		} else {
			// X = Ua·W (rank kb), Y = Ub
			x = ws.Mat(a.U.Rows, kb)
			la.Gemm(1, a.U, la.NoTrans, w, la.NoTrans, 0, x)
			y = b.U
		}
	}
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
	w := la.NewMat(k, k)
	la.Gemm(1, a.V, la.Transpose, a.V, la.NoTrans, 0, w)
	t := la.NewMat(a.U.Rows, k)
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

// MatVec computes y += alpha · A · x for a TLR tile.
func MatVec(a *CompTile, alpha float64, x, y []float64) {
	if a.IsDense() {
		la.Gemv(alpha, a.D, la.NoTrans, x, 1, y)
		return
	}
	k := a.Rank()
	if k == 0 {
		return
	}
	tmp := make([]float64, k)
	la.Gemv(1, a.V, la.Transpose, x, 0, tmp)
	la.Gemv(alpha, a.U, la.NoTrans, tmp, 1, y)
}

// MatVecT computes y += alpha · Aᵀ · x (= alpha · V·(Uᵀx) when compressed).
func MatVecT(a *CompTile, alpha float64, x, y []float64) {
	if a.IsDense() {
		la.Gemv(alpha, a.D, la.Transpose, x, 1, y)
		return
	}
	k := a.Rank()
	if k == 0 {
		return
	}
	tmp := make([]float64, k)
	la.Gemv(1, a.U, la.Transpose, x, 0, tmp)
	la.Gemv(alpha, a.V, la.NoTrans, tmp, 1, y)
}
