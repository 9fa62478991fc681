package core

import (
	"fmt"

	"repro/internal/cov"
	"repro/internal/obs"
	"repro/internal/runtime"
	"repro/internal/tile"
)

// Graph-reuse counters for the FullTile mode: the combined dcmg+Cholesky DAG
// is built once per session and re-executed per θ (the graph-reuse contract
// documented in tile.GenSpec).
var (
	cntCacheTileHit  = obs.GetCounter("core.cache.tilegraph.hit")
	cntCacheTileMiss = obs.GetCounter("core.cache.tilegraph.miss")
)

// tileState is the FullTile mode's cached state: the tile descriptors AND
// the combined dcmg+Cholesky task graph — the DAG's shape depends only on n
// and TileSize, which are fixed per problem, so only the GenSpec's
// kernel/nugget change between executions.
type tileState struct {
	taskGraph
	m    *tile.SymMatrix // tiles
	spec *tile.GenSpec   // mutable kernel/nugget slot read by dcmg tasks
	g    *runtime.Graph  // combined generation + factorization DAG
}

func (st *tileState) factorizeOnce(e *evaluator, k *cov.Kernel, nugget float64) (Factor, error) {
	if st.g == nil {
		st.m = tile.NewSym(e.p.N(), e.cfg.TileSize)
		st.spec = &tile.GenSpec{Pts: e.p.Points, Metric: e.p.Metric}
		st.g, _ = tile.BuildGenCholeskyGraph(st.m, st.spec, true)
		cntCacheTileMiss.Inc()
	} else {
		cntCacheTileHit.Inc()
	}
	st.spec.K = k
	st.spec.Nugget = nugget
	if err := e.run(st.g); err != nil {
		return nil, fmt.Errorf("core: %s factorization: %w", e.cfg.Mode, err)
	}
	return memFactor{st.m}, nil
}
