package tlr

import (
	"repro/internal/la"
)

// MatMul computes C += alpha·A·B for a TLR tile and a dense block B
// (cols(tile)×r), the BLAS3 generalization of MatVec.
func MatMul(a *CompTile, alpha float64, b, c *la.Mat) {
	if a.IsDense() {
		la.Gemm(alpha, a.D, la.NoTrans, b, la.NoTrans, 1, c)
		return
	}
	k := a.Rank()
	if k == 0 {
		return
	}
	tmp := la.NewMat(k, b.Cols)
	la.Gemm(1, a.V, la.Transpose, b, la.NoTrans, 0, tmp)
	la.Gemm(alpha, a.U, la.NoTrans, tmp, la.NoTrans, 1, c)
}

func (m *Matrix) rowBlock(b *la.Mat, i int) *la.Mat {
	return b.View(i*m.NB, 0, m.TileDim(i), b.Cols)
}

// ForwardSolveMat solves L·X = B in place against a TLR-factored matrix for
// an n×r right-hand-side block.
//
// B is processed in NB-wide column blocks, making an n×r solve the exact
// concatenation of independent n×NB solves: the GEMM kernel dispatch never
// sees a width that depends on r, so callers that chunk their right-hand
// sides (the bounded-memory prediction-variance path) get bitwise-identical
// results to the one-shot call.
func (m *Matrix) ForwardSolveMat(b *la.Mat) {
	if b.Rows != m.N {
		panic("tlr: ForwardSolveMat row mismatch")
	}
	for c0 := 0; c0 < b.Cols; c0 += m.NB {
		bc := b.View(0, c0, b.Rows, min(m.NB, b.Cols-c0))
		for i := 0; i < m.MT; i++ {
			bi := m.rowBlock(bc, i)
			for j := 0; j < i; j++ {
				m.pinOff(i, j)
				MatMul(m.off[i][j], -1, m.rowBlock(bc, j), bi)
				m.unpinOff(i, j)
			}
			m.pinDiag(i)
			la.Trsm(la.Left, la.Lower, la.NoTrans, 1, m.diag[i], bi)
			m.unpinDiag(i)
		}
	}
}
