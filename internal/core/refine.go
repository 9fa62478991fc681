package core

import (
	"fmt"

	"repro/internal/cov"
	"repro/internal/la"
	"repro/internal/tlr"
)

// RefineOptions tunes the iterative-refinement solver.
type RefineOptions struct {
	// Tol is the target relative residual (default 1e-10).
	Tol float64
}

// SolveRefined solves Σ(θ)·x = b to near machine precision by combining a
// loose TLR factorization (cfg.Accuracy, used as a preconditioner) with
// matrix-free exact operator applications assembled from the kernel — the
// accuracy-refinement extension the paper's conclusion points toward. It
// returns the solution and the iteration statistics.
func SolveRefined(p *Problem, theta cov.Params, cfg Config, b []float64, opts RefineOptions) ([]float64, tlr.RefineResult, error) {
	if err := theta.Validate(); err != nil {
		return nil, tlr.RefineResult{}, err
	}
	if len(b) != p.N() {
		return nil, tlr.RefineResult{}, fmt.Errorf("core: rhs length %d for n=%d", len(b), p.N())
	}
	cfg.Mode = TLR
	if err := cfg.Validate(); err != nil {
		return nil, tlr.RefineResult{}, err
	}
	cfg = cfg.normalized()
	if cfg.Ranks > 1 {
		return nil, tlr.RefineResult{}, fmt.Errorf("core: SolveRefined is shared-memory only (Ranks=%d)", cfg.Ranks)
	}
	if opts.Tol <= 0 {
		opts.Tol = 1e-10
	}
	k := cov.NewKernel(theta)
	nug := cfg.nugget(theta.Variance)

	pre := tlr.NewMatrix(p.N(), cfg.TileSize, cfg.Accuracy)
	spec := &tlr.GenSpec{K: k, Pts: p.Points, Metric: p.Metric, Nugget: nug, Comp: tlr.CompressRSVD}
	if err := tlr.GenCholesky(pre, spec, cfg.Workers); err != nil {
		return nil, tlr.RefineResult{}, fmt.Errorf("core: preconditioner factorization: %w", err)
	}

	matvec := exactMatVec(p, k, nug, cfg.TileSize)
	x, res, err := tlr.RefineSolve(pre, matvec, b, opts.Tol)
	if err != nil {
		return x, res, fmt.Errorf("core: refined solve: %w", err)
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
