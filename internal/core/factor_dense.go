package core

import (
	"fmt"

	"repro/internal/cov"
	"repro/internal/la"
	"repro/internal/obs"
)

// Cache-reuse counters: each factorize call either reuses the cached Σ
// buffer (hit) or allocates it (miss). Across a Fit the hit:miss ratio
// should be (evals−1):1 — anything else means the optimizer is silently
// reallocating per-problem state every iteration.
var (
	cntCacheSigmaHit  = obs.GetCounter("core.cache.sigma.hit")
	cntCacheSigmaMiss = obs.GetCounter("core.cache.sigma.miss")
)

// denseState is the FullBlock mode's cached state: the dense n×n Σ buffer,
// overwritten (and refactored in place) every evaluation.
type denseState struct {
	taskGraph // it runs no graph, so the verdict is never yes

	sigma *la.Mat // Σ / L buffer
}

func (st *denseState) factorizeOnce(e *evaluator, k *cov.Kernel, nugget float64) (Factor, error) {
	n := e.p.N()
	if st.sigma == nil {
		st.sigma = la.NewMat(n, n)
		cntCacheSigmaMiss.Inc()
	} else {
		cntCacheSigmaHit.Inc()
	}
	k.MatrixParallel(st.sigma, e.p.Points, e.p.Metric, e.cfg.Workers)
	cov.AddNugget(st.sigma, nugget)
	if err := la.PotrfParallel(st.sigma, e.cfg.Workers); err != nil {
		return nil, fmt.Errorf("core: %s factorization: %w", e.cfg.Mode, err)
	}
	return memFactor{denseFactor{l: st.sigma}}, nil
}

// denseFactor is a dense lower Cholesky factor: each solve is one la.Trsm.
type denseFactor struct{ l *la.Mat }

func (f denseFactor) ForwardSolveMat(b *la.Mat) { la.Trsm(la.Left, la.Lower, la.NoTrans, 1, f.l, b) }
func (f denseFactor) BackwardSolveMat(b *la.Mat) {
	la.Trsm(la.Left, la.Lower, la.Transpose, 1, f.l, b)
}
func (f denseFactor) LogDet() float64 { return la.LogDetFromChol(f.l) }
func (f denseFactor) Bytes() int64    { return int64(f.l.Rows) * int64(f.l.Cols) * 8 }
