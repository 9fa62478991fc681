package tlr

import (
	"errors"
	"math"

	"repro/internal/la"
)

// RefineResult reports a preconditioned iterative solve.
type RefineResult struct {
	Iterations int
	// RelResidual is ‖b − A·x‖/‖b‖ at exit.
	RelResidual float64
	Converged   bool
}

// ErrNoConvergence is returned when PCG exhausts its iteration budget.
var ErrNoConvergence = errors.New("tlr: iterative refinement did not converge")

// refineMaxIter caps the PCG iterations of RefineSolve.
const refineMaxIter = 50

// RefineSolve solves A·x = b to relative residual tol using preconditioned
// conjugate gradients, with a (possibly loose-accuracy) TLR Cholesky
// factorization of A as the preconditioner and matvec applying the exact
// operator (y ← A·x).
//
// This is the classical accuracy-recovery pattern for compressed
// factorizations: factor cheaply at 1e-2…1e-4, then recover machine-precision
// solves in a handful of Krylov iterations — each iteration costing one exact
// matvec plus one compressed triangular solve.
//
// The preconditioner must already be factored (Cholesky called on it). b is
// not modified; the solution is returned in a fresh slice.
func RefineSolve(precond *Matrix, matvec func(x, y []float64), b []float64, tol float64) ([]float64, RefineResult, error) {
	n := len(b)
	if precond.N != n {
		return nil, RefineResult{}, errors.New("tlr: preconditioner dimension mismatch")
	}
	if tol <= 0 {
		tol = 1e-12
	}
	bNorm := la.Nrm2(b)
	if bNorm == 0 {
		return make([]float64, n), RefineResult{Converged: true}, nil
	}

	x := make([]float64, n)
	r := append([]float64(nil), b...) // r = b − A·0
	z := make([]float64, n)
	pv := make([]float64, n)
	ap := make([]float64, n)

	applyM := func(src, dst []float64) {
		copy(dst, src)
		d := la.NewMatFrom(n, 1, dst)
		precond.ForwardSolveMat(d)
		precond.BackwardSolveMat(d)
	}

	applyM(r, z)
	copy(pv, z)
	rz := la.Dot(r, z)

	res := RefineResult{}
	for it := 0; it < refineMaxIter; it++ {
		for i := range ap {
			ap[i] = 0
		}
		matvec(pv, ap)
		pap := la.Dot(pv, ap)
		if pap <= 0 || math.IsNaN(pap) {
			// loss of positive definiteness in finite precision: bail out
			// with the current iterate
			res.Iterations = it
			res.RelResidual = la.Nrm2(r) / bNorm
			return x, res, ErrNoConvergence
		}
		alpha := rz / pap
		la.Axpy(alpha, pv, x)
		la.Axpy(-alpha, ap, r)
		res.Iterations = it + 1
		res.RelResidual = la.Nrm2(r) / bNorm
		if res.RelResidual <= tol {
			res.Converged = true
			return x, res, nil
		}
		applyM(r, z)
		rzNew := la.Dot(r, z)
		beta := rzNew / rz
		rz = rzNew
		for i := range pv {
			pv[i] = z[i] + beta*pv[i]
		}
	}
	return x, res, ErrNoConvergence
}
