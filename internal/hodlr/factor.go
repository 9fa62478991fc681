// HODLR Cholesky factorization and triangular solves. The recursion on a
// 2×2-partitioned SPD matrix
//
//	A = [A11 A21ᵀ; A21 A22]
//
// is the block algorithm: factor A11 = L11·L11ᵀ (recursively), form the
// panel L21 = A21·L11⁻ᵀ, downdate the Schur complement A22 −= L21·L21ᵀ, and
// factor the downdated A22 recursively. With A21 = U·Vᵀ compressed, the
// panel solve is Ṽ = L11⁻¹·V (the U factor never moves) and the Schur
// update is the rank-k correction U·S·Uᵀ with S = ṼᵀṼ computed once per
// panel. The correction is scattered over the right subtree: dense leaves
// absorb their diagonal block of it exactly; off-diagonal blocks absorb
// theirs through a recompressing low-rank addition (tlr.AddLowRank), which
// is where the format's approximation lives.
//
// After Cholesky the tree holds L in place: leaves carry dense Cholesky
// factors, off blocks carry L21 in compressed form, and the solves walk the
// tree.
package hodlr

import (
	"fmt"

	"repro/internal/la"
	"repro/internal/tile"
	"repro/internal/tlr"
)

// Cholesky factors the assembled matrix in place: A = L·Lᵀ. On a
// non-positive-definite pivot the error wraps la.ErrNotPositiveDefinite and
// the tree is left partially factored — regenerate (Build or a GenSpec
// graph execution) before retrying, e.g. with a larger nugget.
//
// The factorization is deterministic: the operation order is fixed by the
// tree structure, so repeated factorizations of the same matrix are
// bitwise-identical (the property the task-parallel execution in gen.go
// preserves at any worker count).
func (m *Matrix) Cholesky() error {
	return m.root.cholesky(m.Tol)
}

func (n *node) cholesky(tol float64) error {
	if n.dense != nil {
		return n.potrf()
	}
	if err := n.left.cholesky(tol); err != nil {
		return err
	}
	n.factorPanel()
	for _, d := range n.right.nodes(nil) {
		n.applySchur(d, tol)
	}
	return n.right.cholesky(tol)
}

// potrf factors a dense leaf in place.
func (n *node) potrf() error {
	if err := la.Potrf(n.dense); err != nil {
		return fmt.Errorf("hodlr: leaf [%d,%d): %w", n.lo, n.hi, err)
	}
	return nil
}

// factorPanel turns the off block A21 into the panel L21 = A21·L11⁻ᵀ, using
// the already-factored left subtree, and caches S = ṼᵀṼ for the Schur
// updates. Only V moves: L21 = U·(L11⁻¹·V)ᵀ. Every off block is
// compressed: HODLR generates with no rank cap and no forced misses, and
// AddLowRank keeps a compressed tile compressed when maxRank is 0.
func (n *node) factorPanel() {
	t := n.off
	n.schurS = nil
	if k := t.Rank(); k > 0 {
		n.left.solveMat(la.NoTrans, t.V, n.lo)
		s := la.NewMat(k, k)
		la.Gemm(1, t.V, la.Transpose, t.V, la.NoTrans, 0, s)
		n.schurS = s
	}
}

// applySchur subtracts this panel's block of the Schur correction
// L21·L21ᵀ from descendant d of the right subtree: the diagonal slice for a
// leaf, the (d.right × d.left) slice for an internal node's off block. Each
// target is touched by at most one task per panel, and distinct targets are
// independent — the parallelism the task graph exploits.
func (n *node) applySchur(d *node, tol float64) {
	mid := n.left.hi
	t := n.off
	if t.Rank() == 0 {
		return
	}
	u, s := t.U, n.schurS
	if d.dense != nil {
		ud := u.View(d.lo-mid, 0, d.hi-d.lo, u.Cols)
		us := la.NewMat(ud.Rows, s.Cols)
		la.Gemm(1, ud, la.NoTrans, s, la.NoTrans, 0, us)
		la.Gemm(-1, us, la.NoTrans, ud, la.Transpose, 1, d.dense)
		return
	}
	dmid := d.left.hi
	ur := u.View(dmid-mid, 0, d.hi-dmid, u.Cols)
	ul := u.View(d.lo-mid, 0, dmid-d.lo, u.Cols)
	x := la.NewMat(ur.Rows, s.Cols)
	la.Gemm(1, ur, la.NoTrans, s, la.NoTrans, 0, x)
	d.off = tlr.AddLowRank(d.off, -1, x, ul, tol, 0)
}

// LogDet returns log|A| from the factored tree: 2·Σ log L_ii accumulated
// over the dense leaves. Valid only after Cholesky.
func (m *Matrix) LogDet() float64 { return m.root.logDet() }

func (n *node) logDet() float64 {
	if n.dense != nil {
		return la.LogDetFromChol(n.dense)
	}
	return n.left.logDet() + n.right.logDet()
}

// ForwardSolveMat overwrites the N×r block B with L⁻¹·B.
func (m *Matrix) ForwardSolveMat(b *la.Mat) { m.solveMat(la.NoTrans, b) }

// BackwardSolveMat overwrites the N×r block B with L⁻ᵀ·B.
func (m *Matrix) BackwardSolveMat(b *la.Mat) { m.solveMat(la.Transpose, b) }

// solveMat walks the tree over one LeafSize-wide column block of B at a time
// (tile.ColumnBlocks: chunked and whole solves agree bit for bit); the
// recursion cannot fail.
func (m *Matrix) solveMat(ta la.Trans, b *la.Mat) {
	_ = tile.ColumnBlocks(m.N, m.LeafSize, b, func(bc *la.Mat) error {
		m.root.solveMat(ta, bc, 0)
		return nil
	})
}

// solveMat solves op(L)·X = B over the subtree; b's row 0 is global index
// base. With L = [L11 0; L21 L22] the half that depends on nothing else is
// solved first — the left for L, the right for Lᵀ — its contribution through
// op(L21) leaves the other half, and the other half is solved.
func (n *node) solveMat(ta la.Trans, b *la.Mat, base int) {
	rows := func(d *node) *la.Mat { return b.View(d.lo-base, 0, d.hi-d.lo, b.Cols) }
	if n.dense != nil {
		la.Trsm(la.Left, la.Lower, ta, 1, n.dense, rows(n))
		return
	}
	first, second := n.left, n.right
	if ta == la.Transpose {
		first, second = second, first
	}
	first.solveMat(ta, b, base)
	tlr.MatMul(n.off, ta, -1, rows(first), rows(second))
	second.solveMat(ta, b, base)
}

// RankStats returns the (max, mean) rank over the compressed off-diagonal
// blocks.
func (m *Matrix) RankStats() (int, float64) {
	var max, sum, cnt int
	for _, d := range m.root.nodes(nil) {
		if d.left == nil || d.off == nil {
			continue
		}
		r := d.off.Rank()
		if r > max {
			max = r
		}
		sum += r
		cnt++
	}
	if cnt == 0 {
		return 0, 0
	}
	return max, float64(sum) / float64(cnt)
}
