package core

import (
	"fmt"

	"repro/internal/cov"
	"repro/internal/la"
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
	return memFactor{tileFactor{m: st.m, workers: e.cfg.Workers}}, nil
}

// tileFactor is a tiled dense factorization.
type tileFactor struct {
	m       *tile.SymMatrix
	workers int
}

func (f tileFactor) ForwardSolve(b []float64) {
	if err := tile.ForwardSolve(f.m, b, f.workers); err != nil {
		// the forward-solve DAG cannot fail numerically; a failure is a
		// programming error
		panic(err)
	}
}
func (f tileFactor) Solve(b []float64) {
	f.ForwardSolve(b)
	tile.BackwardSolve(f.m, b)
}
func (f tileFactor) ForwardSolveMat(b *la.Mat) { f.m.ForwardSolveMat(b) }
func (f tileFactor) LogDet() float64           { return f.m.LogDet() }
func (f tileFactor) Bytes() int64              { return f.m.Bytes() }
func (f tileFactor) RankStats() (int, float64) { return 0, 0 }
