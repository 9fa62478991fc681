package tile

import (
	"fmt"

	"repro/internal/la"
)

// ColumnBlocks hands solve the n×r right-hand side b one nb-wide column block
// at a time, stopping at the first error. It is what makes an n×r solve the
// exact concatenation of independent n×nb solves: no kernel ever sees a width
// that depends on r, so a caller that chunks its right-hand sides at
// multiples of nb (the bounded-memory prediction-variance path) gets the bits
// of the one-shot call. Every block solve above la enters through here, and
// this is where a right-hand side of the wrong height is refused.
func ColumnBlocks(n, nb int, b *la.Mat, solve func(bc *la.Mat) error) error {
	if b.Rows != n {
		panic(fmt.Sprintf("tile: right-hand side has rows %d for n=%d", b.Rows, n))
	}
	for c0 := 0; c0 < b.Cols; c0 += nb {
		if err := solve(b.View(0, c0, n, min(nb, b.Cols-c0))); err != nil {
			return err
		}
	}
	return nil
}

// SolveSweep solves op(L)·X = B in place against a Cholesky factor stored as
// a lower-triangular grid of nb-edged tiles, B being n×r — a vector is r = 1.
// It is the only place the substitution is spelled out, as addCholeskyTasks
// is for the factorization: tile rows 0→MT−1 for L (ta NoTrans), MT−1→0 for
// Lᵀ (Transpose), and in each row i the rows j already solved leave it in the
// order they were solved, then the diagonal block is solved. update(i, j)
// must do B_i ← B_i − op(L)_ij·B_j, where op(L)_ij is stored tile
// (max(i,j), min(i,j)), transposed under Transpose; diag(i) must do
// B_i ← op(L_ii)⁻¹·B_i. The full-tile and TLR factors and the rank shards
// each pass their kernels; the first error a kernel returns (on ranks, a
// failed receive) ends the sweep.
func SolveSweep(n, nb int, ta la.Trans, b *la.Mat, update func(i, j int, bj, bi *la.Mat) error, diag func(i int, bi *la.Mat) error) error {
	mt := (n + nb - 1) / nb
	at := func(s int) int { // the s-th tile row solved
		if ta == la.Transpose {
			return mt - 1 - s
		}
		return s
	}
	return ColumnBlocks(n, nb, b, func(bc *la.Mat) error {
		row := func(i int) *la.Mat { return bc.View(i*nb, 0, tileDim(n, nb, i), bc.Cols) }
		for s := 0; s < mt; s++ {
			i := at(s)
			bi := row(i)
			for q := 0; q < s; q++ {
				if err := update(i, at(q), row(at(q)), bi); err != nil {
					return err
				}
			}
			if err := diag(i, bi); err != nil {
				return err
			}
		}
		return nil
	})
}

// solveMat runs the sweep with the dense tile kernels, which cannot fail.
func (m *SymMatrix) solveMat(ta la.Trans, b *la.Mat) {
	_ = SolveSweep(m.N, m.NB, ta, b,
		func(i, j int, bj, bi *la.Mat) error {
			la.Gemm(-1, m.Tile(max(i, j), min(i, j)), ta, bj, la.NoTrans, 1, bi)
			return nil
		},
		func(i int, bi *la.Mat) error {
			la.Trsm(la.Left, la.Lower, ta, 1, m.Tile(i, i), bi)
			return nil
		})
}

// ForwardSolveMat overwrites the n×r block B with L⁻¹·B for a factored
// matrix. The sweep is sequential over tile rows; each update is a BLAS3
// call (a matrix-vector product when r = 1).
func (m *SymMatrix) ForwardSolveMat(b *la.Mat) { m.solveMat(la.NoTrans, b) }

// BackwardSolveMat overwrites the n×r block B with L⁻ᵀ·B.
func (m *SymMatrix) BackwardSolveMat(b *la.Mat) { m.solveMat(la.Transpose, b) }

// ForwardSolve and BackwardSolve are the vector entry points bench/layers.go
// times, and bench/ is edited only by [benchmark] PRs: one-line shims over
// the block solve for the next one to retire. Nothing else may call them.
// workers is ignored — the sweep is serial.
func ForwardSolve(m *SymMatrix, b []float64, workers int) error {
	m.ForwardSolveMat(la.NewMatFrom(len(b), 1, b))
	return nil
}

// BackwardSolve: see ForwardSolve.
func BackwardSolve(m *SymMatrix, b []float64) { m.BackwardSolveMat(la.NewMatFrom(len(b), 1, b)) }
