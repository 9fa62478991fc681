package core

import "repro/internal/la"

// Factor is a computed Cholesky factorization of Σ(θ), in whichever of the
// five ways it was factored. It exposes exactly the operations the MLE and
// prediction pipelines need. The operations that touch the factor return an
// error because on ranks each is a message-passing run a rank death can
// abort; on shared memory the error is always nil.
type Factor interface {
	// HalfSolve overwrites b with L⁻¹·b (forward substitution).
	HalfSolve(b []float64) error
	// Solve overwrites b with A⁻¹·b.
	Solve(b []float64) error
	// HalfSolveMat overwrites the n×r block B with L⁻¹·B.
	HalfSolveMat(b *la.Mat) error
	// LogDet returns log|A|.
	LogDet() (float64, error)
	// Bytes returns the factor's storage footprint.
	Bytes() int64
	// RankStats returns (max, mean) compressed-tile rank; zeros for the
	// dense modes.
	RankStats() (int, float64)
}

// inMemory is a factorization in this address space: the same operations,
// none of which can fail. *tlr.Matrix and *hodlr.Matrix are one as they
// stand; denseFactor and tileFactor wrap the two dense layouts.
type inMemory interface {
	ForwardSolve(b []float64)
	Solve(b []float64)
	ForwardSolveMat(b *la.Mat)
	LogDet() float64
	Bytes() int64
	RankStats() (int, float64)
}

// memFactor adapts an inMemory factorization to Factor. It aliases the
// factorizer's cached buffers: read-only, and safe for concurrent
// HalfSolveMat calls, until that factorizer's next factorization overwrites
// it.
type memFactor struct{ inMemory }

func (f memFactor) HalfSolve(b []float64) error  { f.ForwardSolve(b); return nil }
func (f memFactor) Solve(b []float64) error      { f.inMemory.Solve(b); return nil }
func (f memFactor) HalfSolveMat(b *la.Mat) error { f.ForwardSolveMat(b); return nil }
func (f memFactor) LogDet() (float64, error)     { return f.inMemory.LogDet(), nil }
