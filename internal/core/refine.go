package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/cov"
	"repro/internal/geom"
	"repro/internal/la"
)

// RefineOptions tunes the iterative-refinement solver.
type RefineOptions struct {
	// Tol is the target relative residual (default 1e-10).
	Tol float64
}

// RefineResult reports a preconditioned iterative solve.
type RefineResult struct {
	Iterations int
	// RelResidual is ‖b − Σ·x‖/‖b‖ at exit.
	RelResidual float64
	Converged   bool
}

// refineMaxIter caps the PCG iterations of a refined solve.
const refineMaxIter = 50

// errNoConvergence is returned when PCG exhausts its iteration budget or
// loses positive definiteness.
var errNoConvergence = errors.New("core: iterative refinement did not converge")

// SolveRefined solves Σ(θ)·x = b to near machine precision on a fresh
// Session: see Session.SolveRefined.
func SolveRefined(p *Problem, theta cov.Params, cfg Config, b []float64, opts RefineOptions) ([]float64, RefineResult, error) {
	s, err := NewSession(p, cfg)
	if err != nil {
		return nil, RefineResult{}, err
	}
	defer s.Close()
	return s.SolveRefined(theta, b, opts)
}

// SolveRefined solves Σ(θ)·x = b to near machine precision by
// preconditioned conjugate gradients: the session's factorization of Σ(θ)
// (a loose TLR or HODLR one is cheap; a dense one makes the first iterate
// the answer) preconditions, and Σ(θ) itself is applied matrix-free from the
// kernel — the accuracy-refinement extension the paper's conclusion points
// toward. b and x are in the order of the Problem the session was built on.
// The factorization runs under the session's recovery rule and is the
// cached one when a predict at θ left it; it returns the solution and the
// iteration statistics, and the last iterate with an error when PCG did not
// converge.
func (s *Session) SolveRefined(theta cov.Params, b []float64, opts RefineOptions) ([]float64, RefineResult, error) {
	if err := theta.Validate(); err != nil {
		return nil, RefineResult{}, err
	}
	n := s.p.N()
	if len(b) != n {
		return nil, RefineResult{}, fmt.Errorf("core: rhs length %d for n=%d", len(b), n)
	}
	tol := opts.Tol
	if tol <= 0 {
		tol = 1e-10
	}
	k := cov.NewKernel(theta)
	nugget := s.cfg.nugget(theta.Variance)
	matvec := exactMatVec(s.p, k, nugget, s.cfg.TileSize)
	bs := b
	if s.perm != nil {
		bs = geom.ApplyPermFloat(b, s.perm)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	var (
		xs  []float64
		res RefineResult
	)
	err := s.withFactor(k, theta, nugget, func(f Factor) (err error) {
		xs, res, err = pcg(f, matvec, bs, tol)
		return err
	})
	if err != nil {
		return nil, res, fmt.Errorf("core: refined solve: %w", err)
	}
	x := xs
	if s.perm != nil {
		x = geom.ApplyPermFloat(xs, geom.InversePerm(s.perm))
	}
	if !res.Converged {
		return x, res, errNoConvergence
	}
	return x, res, nil
}

// pcg solves A·x = b to relative residual tol by conjugate gradients
// preconditioned with f's Solve, matvec applying A exactly (y += A·x). The
// error is the factor's; running out of iterations, or losing positive
// definiteness in finite precision, returns the current iterate with
// Converged false.
func pcg(f Factor, matvec func(x, y []float64), b []float64, tol float64) ([]float64, RefineResult, error) {
	n := len(b)
	var res RefineResult
	x := make([]float64, n)
	bNorm := la.Nrm2(b)
	if bNorm == 0 {
		res.Converged = true
		return x, res, nil
	}
	r := append([]float64(nil), b...) // r = b − A·0
	z := make([]float64, n)
	pv := make([]float64, n)
	ap := make([]float64, n)
	precondition := func() error { // z = M⁻¹·r
		copy(z, r)
		return f.Solve(la.NewMatFrom(n, 1, z))
	}

	if err := precondition(); err != nil {
		return nil, res, err
	}
	copy(pv, z)
	rz := la.Dot(r, z)
	for it := 0; it < refineMaxIter; it++ {
		clear(ap)
		matvec(pv, ap)
		pap := la.Dot(pv, ap)
		if pap <= 0 || math.IsNaN(pap) {
			res.RelResidual = la.Nrm2(r) / bNorm
			return x, res, nil
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
		if err := precondition(); err != nil {
			return nil, res, err
		}
		rzNew := la.Dot(r, z)
		beta := rzNew / rz
		rz = rzNew
		for i := range pv {
			pv[i] = z[i] + beta*pv[i]
		}
	}
	return x, res, nil
}

// exactMatVec returns y += Σ(θ)·x applied matrix-free: covariance rows are
// assembled blockRows at a time and immediately consumed, so the full n×n
// matrix is never stored. Each row sums over j in the same order whatever
// the blocking, so the result does not depend on it.
func exactMatVec(p *Problem, k *cov.Kernel, nugget float64, blockRows int) func(x, y []float64) {
	n := p.N()
	return func(x, y []float64) {
		block := la.NewMat(min(blockRows, n), n)
		for r0 := 0; r0 < n; r0 += blockRows {
			rows := min(blockRows, n-r0)
			blk := block.View(0, 0, rows, n)
			k.Block(blk, p.Points[r0:r0+rows], p.Points, p.Metric)
			for i := 0; i < rows; i++ {
				row := blk.Row(i)
				s := nugget * x[r0+i]
				for j, v := range row {
					s += v * x[j]
				}
				y[r0+i] += s
			}
		}
	}
}
