package core

import "repro/internal/la"

// Factor is a computed Cholesky factorization of Σ(θ), in whichever of the
// five ways it was factored. It exposes exactly the operations the MLE and
// prediction pipelines need. A right-hand side is an n×r block — the
// observations are r = 1, prediction's cross-covariance panel is r = m — and
// every format solves it with one sweep (tile.SolveSweep). The operations
// that touch the factor return an error because on ranks each is a
// message-passing run a rank death can abort; on shared memory the error is
// always nil.
type Factor interface {
	// HalfSolve overwrites the n×r block B with L⁻¹·B (forward substitution).
	HalfSolve(b *la.Mat) error
	// Solve overwrites the n×r block B with A⁻¹·B.
	Solve(b *la.Mat) error
	// LogDet returns log|A|.
	LogDet() (float64, error)
	// Bytes returns the factor's storage footprint.
	Bytes() int64
	// RankStats returns (max, mean) compressed-tile rank; zeros for the
	// dense modes.
	RankStats() (int, float64)
}

// inMemory is a factorization in this address space, none of whose
// operations can fail. *tile.SymMatrix, *tlr.Matrix and *hodlr.Matrix are one
// as they stand; denseFactor wraps the one dense block.
type inMemory interface {
	ForwardSolveMat(b *la.Mat)
	BackwardSolveMat(b *la.Mat)
	LogDet() float64
	Bytes() int64
}

// memFactor adapts an inMemory factorization to Factor. It aliases the
// factorizer's cached buffers: read-only, and safe for concurrent HalfSolve
// calls, until that factorizer's next factorization overwrites it.
type memFactor struct{ inMemory }

func (f memFactor) HalfSolve(b *la.Mat) error { f.ForwardSolveMat(b); return nil }
func (f memFactor) Solve(b *la.Mat) error {
	f.ForwardSolveMat(b)
	f.BackwardSolveMat(b)
	return nil
}
func (f memFactor) LogDet() (float64, error) { return f.inMemory.LogDet(), nil }

// RankStats is the compressed formats' own; the dense layouts have no ranks.
func (f memFactor) RankStats() (int, float64) {
	if c, ok := f.inMemory.(interface{ RankStats() (int, float64) }); ok {
		return c.RankStats()
	}
	return 0, 0
}
