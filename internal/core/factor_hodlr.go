package core

import (
	"fmt"

	"repro/internal/cov"
	"repro/internal/hodlr"
	"repro/internal/obs"
	"repro/internal/runtime"
	"repro/internal/tlr"
)

// Graph-reuse counters for the HODLR mode: the tree shell and the fused
// assembly+Cholesky DAG are built once per session and re-executed per θ.
var (
	cntCacheHODLRHit  = obs.GetCounter("core.cache.hodlrgraph.hit")
	cntCacheHODLRMiss = obs.GetCounter("core.cache.hodlrgraph.miss")
)

// hodlrState is the HODLR mode's cached state: the recursion-tree shell
// (preallocated leaf blocks, empty off-diagonal slots) and the fused
// assembly + hierarchical-Cholesky DAG. Config.TileSize doubles as the leaf
// size, Config.Accuracy as the per-block compression tolerance.
type hodlrState struct {
	taskGraph
	hm    *hodlr.Matrix
	hspec *tlr.GenSpec // mutable kernel/nugget slot read by the tasks
	hg    *runtime.Graph
}

func (st *hodlrState) factorizeOnce(e *evaluator, k *cov.Kernel, nugget float64) (Factor, error) {
	if st.hg == nil {
		comp, err := tlr.CompressorByName(e.cfg.CompressorName)
		if err != nil {
			return nil, err
		}
		st.hm = hodlr.NewTree(e.p.N(), e.cfg.TileSize, e.cfg.Accuracy)
		st.hspec = &tlr.GenSpec{Pts: e.p.Points, Metric: e.p.Metric, Comp: comp}
		st.hg = hodlr.BuildGenCholeskyGraph(st.hm, st.hspec)
		cntCacheHODLRMiss.Inc()
	} else {
		cntCacheHODLRHit.Inc()
	}
	st.hspec.K = k
	st.hspec.Nugget = nugget
	if err := e.run(st.hg); err != nil {
		return nil, fmt.Errorf("core: %s factorization: %w", e.cfg.Mode, err)
	}
	return memFactor{st.hm}, nil
}
