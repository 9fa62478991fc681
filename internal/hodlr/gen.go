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

	"repro/internal/cov"
	"repro/internal/geom"
	"repro/internal/la"
	"repro/internal/obs"
	"repro/internal/runtime"
	"repro/internal/tile"
	"repro/internal/tlr"
)

var (
	cntDcmgHODLR = obs.GetCounter("hodlr.dcmg.calls")
	cntCompressH = obs.GetCounter("hodlr.compress.calls")
	histRankH    = obs.GetHistogram("hodlr.compress.rank")
)

// NewTree allocates the HODLR shell for n points: the recursion tree with
// leaf blocks preallocated (zero) and off-diagonal blocks empty. Executing a
// GenSpec graph fills it; re-executing with an updated spec refills it in
// place — the reuse pattern core's likelihood evaluator drives once per
// optimizer iteration.
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

// GenSpec carries the inputs of HODLR covariance assembly. As with
// tlr.GenSpec, task closures read the fields when they RUN: callers that
// cache the assembly+factorization graph swap in a new Kernel and Nugget
// between executions and re-run the same graph. Pts, Metric and Comp must
// stay fixed for the graph's lifetime.
type GenSpec struct {
	K      *cov.Kernel
	Pts    []geom.Point
	Metric geom.Metric
	Nugget float64
	// Comp compresses the off-diagonal blocks. Stochastic backends
	// implementing tlr.TileCompressor are re-seeded per block (keyed by the
	// block's index range), keeping results bitwise-identical at any worker
	// count.
	Comp tlr.Compressor
}

// compressorFor resolves the compressor instance for the off block of node
// n: per-block seeded for stochastic backends, spec.Comp otherwise. The
// (lo, hi) range is unique per node, giving every block its own stream.
func (s *GenSpec) compressorFor(n *node) tlr.Compressor {
	if tc, ok := s.Comp.(tlr.TileCompressor); ok {
		return tc.ForTile(n.lo, n.hi)
	}
	return s.Comp
}

// nominalRank is the rank assumed for costing factorization tasks before
// assembly has run (actual ranks are a run-time quantity).
const nominalRank = 16

// flopsCompressH estimates the cost of compressing an r×c block.
func flopsCompressH(r, c int) float64 {
	return 2 * float64(r) * float64(c) * float64(min(r, c))
}

// BuildGenCholeskyGraph builds the combined assembly + factorization DAG
// over m's tree. When bind is true the tasks mutate m in place; a structural
// graph (bind false) carries only costs, for the simulated executors. The
// graph is re-executable: each run regenerates every block from the (possibly
// updated) spec and refactors, leaving m holding the Cholesky factor.
func BuildGenCholeskyGraph(m *Matrix, spec *GenSpec, bind bool) *runtime.Graph {
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
			var run func()
			if bind {
				run = func() {
					cntDcmgHODLR.Inc()
					spec.K.SymBlock(n.dense, spec.Pts[n.lo:n.hi], spec.Metric)
					if spec.Nugget != 0 {
						for a := 0; a < n.dense.Rows; a++ {
							n.dense.Set(a, a, n.dense.At(a, a)+spec.Nugget)
						}
					}
				}
			}
			g.AddTask(runtime.Task{
				Name:     "hdcmg",
				Flops:    tile.FlopsDCMG(n.hi-n.lo, n.hi-n.lo),
				Priority: 4 * (total - idx),
				Run:      run,
				Accesses: []runtime.Access{{Handle: h[n], Mode: runtime.Write}},
			})
			continue
		}
		mid := n.left.hi
		rows, cols := n.hi-mid, mid-n.lo
		var run func()
		if bind {
			run = func() {
				cntDcmgHODLR.Inc()
				block := la.NewMat(rows, cols)
				spec.K.Block(block, spec.Pts[mid:n.hi], spec.Pts[n.lo:mid], spec.Metric)
				t := spec.compressorFor(n).Compress(block, m.Tol)
				cntCompressH.Inc()
				histRankH.Observe(int64(t.Rank()))
				n.off = t
				n.schurS = nil
				h[n].SetBytes(t.Bytes())
			}
		}
		g.AddTask(runtime.Task{
			Name:     "hdcmg+comp",
			Flops:    tile.FlopsDCMG(rows, cols) + flopsCompressH(rows, cols),
			Priority: 4 * (total - idx),
			Run:      run,
			Accesses: []runtime.Access{{Handle: h[n], Mode: runtime.Write}},
		})
	}

	// Factorization: tasks inserted in the sequential recursion's order, so
	// handle-access inference rebuilds its exact data flow.
	var emit func(n *node)
	emit = func(n *node) {
		if n.dense != nil {
			var run func()
			if bind {
				run = func() {
					if err := n.potrf(); err != nil {
						panic(err)
					}
				}
			}
			g.AddTask(runtime.Task{
				Name:     "hpotrf",
				Flops:    tile.FlopsPOTRF(n.hi - n.lo),
				Priority: 3,
				Run:      run,
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
		var runP func()
		if bind {
			runP = func() { n.factorPanel() }
		}
		g.AddTask(runtime.Task{
			Name:     "hpanel",
			Flops:    tile.FlopsTRSM(mid-n.lo, nominalRank),
			Priority: 2,
			Run:      runP,
			Accesses: acc,
		})
		// One Schur task per right-subtree node; distinct targets are
		// independent and run concurrently, same-target updates from nested
		// panels serialize in recursion order via the ReadWrite access.
		for _, d := range n.right.nodes(nil) {
			d := d
			var runS func()
			if bind {
				runS = func() { n.applySchur(d, m.Tol) }
			}
			g.AddTask(runtime.Task{
				Name:     "hschur",
				Flops:    2 * float64(d.hi-d.lo) * float64(d.hi-d.lo) * nominalRank,
				Priority: 1,
				Run:      runS,
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
func GenCholesky(m *Matrix, spec *GenSpec, workers int) error {
	g := BuildGenCholeskyGraph(m, spec, true)
	return g.Execute(runtime.ExecOptions{Workers: workers})
}
