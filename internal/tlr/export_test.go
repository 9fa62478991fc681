package tlr

import (
	"math"

	"repro/internal/la"
)

// BasisGaps measures how far a compressed tile is from the form a structured
// update builds on: the largest off-diagonal entry of UᵀU relative to the
// norms of the two columns, and ‖VᵀV − I‖_max.
func BasisGaps(c *CompTile) (u, v float64) {
	k := c.Rank()
	gu, gv := la.NewMat(k, k), la.NewMat(k, k)
	la.Gemm(1, c.U, la.Transpose, c.U, la.NoTrans, 0, gu)
	la.Gemm(1, c.V, la.Transpose, c.V, la.NoTrans, 0, gv)
	for i := 0; i < k; i++ {
		v = max(v, math.Abs(gv.At(i, i)-1))
		for j := 0; j < i; j++ {
			u = max(u, math.Abs(gu.At(i, j))/math.Sqrt(gu.At(i, i)*gu.At(j, j)))
			v = max(v, math.Abs(gv.At(i, j)))
		}
	}
	return u, v
}
