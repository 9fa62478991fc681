// HODLR assembly + factorization as runtime tasks. Each tree node owns one
// data handle: a leaf's dense diagonal block, or an internal node's
// compressed off-diagonal block (plus its cached Schur kernel). Assembly
// tasks write every handle; the Cholesky tasks — leaf POTRF, per-panel
// solve, per-descendant Schur update — are inserted in the exact order the
// sequential recursion (factor.go) performs them, so the runtime's
// sequential-consistency dependency inference reproduces the recursion's
// data flow and the factorization is bitwise-identical at any worker count.
package hodlr

import (
	"fmt"

	"repro/internal/la"
	"repro/internal/runtime"
	"repro/internal/tile"
	"repro/internal/tlr"
)

// NewTree allocates the HODLR shell for n points: the recursion tree with
// leaf blocks preallocated (zero) and off-diagonal blocks empty. Executing a
// BuildGenCholeskyGraph graph fills it; re-executing with an updated
// tlr.GenSpec (closures read its fields when they run) refills it in place —
// the reuse pattern core's likelihood evaluator drives once per optimizer
// iteration.
func NewTree(n, leafSize int, tol float64) *Matrix {
	if leafSize < 2 {
		panic("hodlr: leaf size must be at least 2")
	}
	m := &Matrix{N: n, LeafSize: leafSize, Tol: tol}
	m.root = newTree(0, n, leafSize)
	return m
}

func newTree(lo, hi, leaf int) *node {
	n := &node{lo: lo, hi: hi}
	if hi-lo <= leaf {
		n.dense = la.NewMat(hi-lo, hi-lo)
		return n
	}
	mid := lo + (hi-lo)/2
	n.left = newTree(lo, mid, leaf)
	n.right = newTree(mid, hi, leaf)
	return n
}

// genOff generates and compresses internal node n's off-diagonal block —
// rows [mid, hi), columns [lo, mid) — with the generator TLR's tiles come
// from. The (lo, hi) range is unique per node and keys the block's seed, as
// (i, j) keys a tile's; blocks no larger than a leaf use the spec's pooled
// scratch. HODLR has no rank cap and no tiling for ForceMiss to address.
func (n *node) genOff(spec *tlr.GenSpec, leaf int, tol float64) {
	mid := n.left.hi
	n.off = spec.OffBlock(spec.Pts[mid:n.hi], spec.Pts[n.lo:mid], leaf, 0, n.lo, n.hi, tol, 0)
	n.schurS = nil
}

// nominalRank is the rank assumed for costing factorization tasks before
// assembly has run (actual ranks are a run-time quantity).
const nominalRank = 16

// BuildGenCholeskyGraph builds the combined assembly + factorization DAG
// over m's tree; its tasks mutate m in place. The graph is re-executable: each run regenerates every block from the (possibly
// updated) spec and refactors, leaving m holding the Cholesky factor.
func BuildGenCholeskyGraph(m *Matrix, spec *tlr.GenSpec) *runtime.Graph {
	g := runtime.NewGraph()
	all := m.root.nodes(nil)
	total := len(all)
	h := make(map[*node]*runtime.Handle, total)

	for idx, n := range all {
		if n.dense != nil {
			sz := int64(n.hi - n.lo)
			h[n] = g.NewHandle(fmt.Sprintf("L[%d,%d)", n.lo, n.hi), sz*sz*8, int64(idx))
			continue
		}
		var bytes int64
		if n.off != nil {
			bytes = n.off.Bytes()
		}
		h[n] = g.NewHandle(fmt.Sprintf("B[%d,%d)", n.lo, n.hi), bytes, int64(idx))
	}

	// Assembly: one Write task per handle. Leaves regenerate in place; off
	// blocks materialize densely, compress, and replace the tile wholesale
	// (refreshing the handle's byte count with the new rank's footprint).
	for idx, n := range all {
		idx, n := idx, n
		if n.dense != nil {
			g.AddTask(runtime.Task{
				Name:     "hdcmg",
				Flops:    tile.FlopsDCMG(n.hi-n.lo, n.hi-n.lo),
				Priority: 4 * (total - idx),
				Run:      func() { spec.DiagBlock(n.dense, n.lo) },
				Accesses: []runtime.Access{{Handle: h[n], Mode: runtime.Write}},
			})
			continue
		}
		mid := n.left.hi
		rows, cols := n.hi-mid, mid-n.lo
		g.AddTask(runtime.Task{
			Name:     "hdcmg+comp",
			Flops:    tile.FlopsDCMG(rows, cols) + tlr.FlopsCompress(rows, cols),
			Priority: 4 * (total - idx),
			Run: func() {
				n.genOff(spec, m.LeafSize, m.Tol)
				h[n].SetBytes(n.off.Bytes())
			},
			Accesses: []runtime.Access{{Handle: h[n], Mode: runtime.Write}},
		})
	}

	// Factorization: tasks inserted in the sequential recursion's order, so
	// handle-access inference rebuilds its exact data flow.
	var emit func(n *node)
	emit = func(n *node) {
		if n.dense != nil {
			g.AddTask(runtime.Task{
				Name:     "hpotrf",
				Flops:    tile.FlopsPOTRF(n.hi - n.lo),
				Priority: 3,
				Run: func() {
					if err := n.potrf(); err != nil {
						panic(err)
					}
				},
				Accesses: []runtime.Access{{Handle: h[n], Mode: runtime.ReadWrite}},
			})
			return
		}
		emit(n.left)
		mid := n.left.hi
		// Panel: Ṽ = L11⁻¹·V reads every block of the factored left subtree.
		acc := []runtime.Access{{Handle: h[n], Mode: runtime.ReadWrite}}
		for _, l := range n.left.nodes(nil) {
			acc = append(acc, runtime.Access{Handle: h[l], Mode: runtime.Read})
		}
		g.AddTask(runtime.Task{
			Name:     "hpanel",
			Flops:    tile.FlopsTRSM(mid-n.lo, nominalRank),
			Priority: 2,
			Run:      n.factorPanel,
			Accesses: acc,
		})
		// One Schur task per right-subtree node; distinct targets are
		// independent and run concurrently, same-target updates from nested
		// panels serialize in recursion order via the ReadWrite access.
		for _, d := range n.right.nodes(nil) {
			g.AddTask(runtime.Task{
				Name:     "hschur",
				Flops:    2 * float64(d.hi-d.lo) * float64(d.hi-d.lo) * nominalRank,
				Priority: 1,
				Run:      func() { n.applySchur(d, m.Tol) },
				Accesses: []runtime.Access{
					{Handle: h[n], Mode: runtime.Read},
					{Handle: h[d], Mode: runtime.ReadWrite},
				},
			})
		}
		emit(n.right)
	}
	emit(m.root)
	return g
}

// GenCholesky assembles Σ(θ) into m and factors it in place in a single
// task-graph execution. It returns la.ErrNotPositiveDefinite (wrapped) if a
// leaf pivot fails; the result is bitwise-identical to the sequential
// m.Cholesky() at any worker count.
func GenCholesky(m *Matrix, spec *tlr.GenSpec, workers int) error {
	g := BuildGenCholeskyGraph(m, spec)
	return g.Execute(runtime.ExecOptions{Workers: workers})
}
