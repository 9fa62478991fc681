// Package hodlr implements a Hierarchically Off-Diagonal Low-Rank matrix —
// the recursive-partition alternative to the flat TLR format the paper's
// related-work section (§II) discusses. It exists as a comparison baseline:
// HODLR reaches better asymptotic compression on smooth kernels but carries
// a recursive tree structure that is harder to schedule on distributed
// machines, which is exactly the trade-off that led the paper to TLR.
//
// The package provides construction from a covariance kernel, storage
// accounting, matrix reconstruction, and fast matrix products — the
// operations the format-comparison ablation needs.
package hodlr

import (
	"fmt"

	"repro/internal/cov"
	"repro/internal/geom"
	"repro/internal/la"
	"repro/internal/tlr"
)

// Matrix is a symmetric HODLR matrix over index range [0, N).
type Matrix struct {
	N        int
	LeafSize int
	Tol      float64
	root     *node
}

// node is one recursion level: either a dense leaf or a 2×2 split with a
// compressed off-diagonal block (symmetric: the (2,1) block is stored, the
// (1,2) block is its transpose).
type node struct {
	lo, hi int // global index range [lo, hi)
	// leaf
	dense *la.Mat
	// internal
	left, right *node
	off         *tlr.CompTile // rows = right range, cols = left range

	// schurS caches S = ṼᵀṼ, computed once by the panel solve of the
	// Cholesky factorization (factor.go) and consumed by every Schur update
	// the panel feeds. Nil before factorization and for rank-0 panels.
	schurS *la.Mat
}

// nodes appends every node of the subtree in pre-order (self, left, right) —
// the deterministic enumeration the factorization uses for Schur-update
// targets and the task graph uses for handle layout.
func (n *node) nodes(out []*node) []*node {
	out = append(out, n)
	if n.left != nil {
		out = n.left.nodes(out)
		out = n.right.nodes(out)
	}
	return out
}

// Build assembles a HODLR representation of Σ(θ) over pts with the given
// accuracy and leaf size, compressing each off-diagonal block with comp: the
// sequential walk over the assembly bodies BuildGenCholeskyGraph's tasks run.
func Build(k *cov.Kernel, pts []geom.Point, metric geom.Metric, leafSize int, tol float64, comp tlr.Compressor, nugget float64) *Matrix {
	m := NewTree(len(pts), leafSize, tol)
	spec := &tlr.GenSpec{K: k, Pts: pts, Metric: metric, Nugget: nugget, Comp: comp}
	for _, n := range m.root.nodes(nil) {
		if n.dense != nil {
			spec.DiagBlock(n.dense, n.lo)
		} else {
			n.genOff(spec, leafSize, tol)
		}
	}
	return m
}

// Bytes returns the storage footprint.
func (m *Matrix) Bytes() int64 { return m.root.bytes() }

func (n *node) bytes() int64 {
	if n.dense != nil {
		return int64(n.dense.Rows) * int64(n.dense.Cols) * 8
	}
	return n.left.bytes() + n.right.bytes() + n.off.Bytes()
}

// MaxRank returns the largest off-diagonal rank in the tree.
func (m *Matrix) MaxRank() int { return m.root.maxRank() }

func (n *node) maxRank() int {
	if n.dense != nil {
		return 0
	}
	k := n.off.Rank()
	if l := n.left.maxRank(); l > k {
		k = l
	}
	if r := n.right.maxRank(); r > k {
		k = r
	}
	return k
}

// Levels returns the depth of the recursion tree.
func (m *Matrix) Levels() int { return m.root.depth() }

func (n *node) depth() int {
	if n.dense != nil {
		return 1
	}
	l, r := n.left.depth(), n.right.depth()
	if r > l {
		l = r
	}
	return l + 1
}

// Dense reconstructs the full symmetric matrix (testing).
func (m *Matrix) Dense() *la.Mat {
	out := la.NewMat(m.N, m.N)
	m.root.fill(out)
	return out
}

func (n *node) fill(out *la.Mat) {
	if n.dense != nil {
		for a := 0; a < n.dense.Rows; a++ {
			for b := 0; b < n.dense.Cols; b++ {
				out.Set(n.lo+a, n.lo+b, n.dense.At(a, b))
			}
		}
		return
	}
	n.left.fill(out)
	n.right.fill(out)
	blk := n.off.Dense()
	mid := n.left.hi
	for a := 0; a < blk.Rows; a++ {
		for b := 0; b < blk.Cols; b++ {
			out.Set(mid+a, n.lo+b, blk.At(a, b))
			out.Set(n.lo+b, mid+a, blk.At(a, b))
		}
	}
}

// MatMul computes Y += alpha·A·X for N×r blocks X and Y in O(k·n·log n) per
// column using the tree (a matrix-vector product is r = 1).
func (m *Matrix) MatMul(alpha float64, x, y *la.Mat) {
	if x.Rows != m.N || y.Rows != m.N || x.Cols != y.Cols {
		panic(fmt.Sprintf("hodlr: matmul dims %dx%d/%dx%d for n=%d", x.Rows, x.Cols, y.Rows, y.Cols, m.N))
	}
	m.root.matmul(alpha, x, y)
}

func (n *node) matmul(alpha float64, x, y *la.Mat) {
	rows := func(b *la.Mat, d *node) *la.Mat { return b.View(d.lo, 0, d.hi-d.lo, b.Cols) }
	if n.dense != nil {
		la.Gemm(alpha, n.dense, la.NoTrans, rows(x, n), la.NoTrans, 1, rows(y, n))
		return
	}
	n.left.matmul(alpha, x, y)
	n.right.matmul(alpha, x, y)
	// off block: rows [mid,hi) × cols [lo,mid), plus its symmetric mirror
	tlr.MatMul(n.off, la.NoTrans, alpha, rows(x, n.left), rows(y, n.right))
	tlr.MatMul(n.off, la.Transpose, alpha, rows(x, n.right), rows(y, n.left))
}
