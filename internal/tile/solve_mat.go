package tile

import (
	"repro/internal/la"
)

// rowBlock returns the view of rows [i·NB, i·NB+TileDim(i)) of b.
func (m *SymMatrix) rowBlock(b *la.Mat, i int) *la.Mat {
	return b.View(i*m.NB, 0, m.TileDim(i), b.Cols)
}

// ForwardSolveMat solves L·X = B in place for a factored matrix, where B is
// n×r (multi-RHS). The sweep is sequential over tile rows; each update is a
// BLAS3 call, so the multi-RHS form amortizes the factor traffic across
// columns — the shape the prediction-variance computation needs.
//
// B is processed in NB-wide column blocks, making an n×r solve the exact
// concatenation of independent n×NB solves: the GEMM kernel dispatch never
// sees a width that depends on r, so callers that chunk their right-hand
// sides (the bounded-memory prediction-variance path) get bitwise-identical
// results to the one-shot call.
func (m *SymMatrix) ForwardSolveMat(b *la.Mat) {
	if b.Rows != m.N {
		panic("tile: ForwardSolveMat row mismatch")
	}
	for c0 := 0; c0 < b.Cols; c0 += m.NB {
		bc := b.View(0, c0, b.Rows, min(m.NB, b.Cols-c0))
		for i := 0; i < m.MT; i++ {
			bi := m.rowBlock(bc, i)
			for j := 0; j < i; j++ {
				la.Gemm(-1, m.Tile(i, j), la.NoTrans, m.rowBlock(bc, j), la.NoTrans, 1, bi)
			}
			la.Trsm(la.Left, la.Lower, la.NoTrans, 1, m.Tile(i, i), bi)
		}
	}
}
