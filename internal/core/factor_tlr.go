package core

import (
	"fmt"

	"repro/internal/cov"
	"repro/internal/obs"
	"repro/internal/runtime"
	"repro/internal/tlr"
)

// Graph-reuse counters for the TLR mode: the fused generate+compress+Cholesky
// DAG is built once per session and re-executed per θ (the graph-reuse
// contract documented in tlr.GenSpec).
var (
	cntCacheTLRHit  = obs.GetCounter("core.cache.tlrgraph.hit")
	cntCacheTLRMiss = obs.GetCounter("core.cache.tlrgraph.miss")
)

// tlrState is the TLR mode's cached state: the tile shell (diagonal buffers
// + compressed-tile slots), the handle layout, the generation scratch pool,
// and the fused generate+compress+Cholesky DAG — only ranks and tile
// contents are rebuilt per θ. With Config.MemBudget > 0 the shell is bound
// to an out-of-core spill cache, opened with the session and released by
// Close.
type tlrState struct {
	taskGraph
	tm    *tlr.Matrix     // tile shell
	tspec *tlr.GenSpec    // mutable kernel/nugget slot read by the gen tasks
	tg    *runtime.Graph  // fused generate+compress + factorization DAG
	cache *tlr.SpillCache // nil when MemBudget == 0
}

// newTLRState opens the spill cache of a session with a memory budget, so
// a spill location that cannot hold one fails NewSession.
func newTLRState(e *evaluator) (factorizer, error) {
	if e.cfg.MemBudget == 0 {
		return &tlrState{}, nil
	}
	c, err := tlr.NewSpillCache(e.cfg.SpillDir, e.cfg.MemBudget)
	if err != nil {
		return nil, fmt.Errorf("core: out-of-core spill file: %w", err)
	}
	return &tlrState{cache: c}, nil
}

func (st *tlrState) factorizeOnce(e *evaluator, k *cov.Kernel, nugget float64) (Factor, error) {
	if st.tg == nil {
		comp, err := tlr.CompressorByName(e.cfg.CompressorName)
		if err != nil {
			return nil, err
		}
		st.tm = tlr.NewMatrix(e.p.N(), e.cfg.TileSize, e.cfg.Accuracy)
		st.tspec = &tlr.GenSpec{Pts: e.p.Points, Metric: e.p.Metric, Comp: comp}
		if e.inj != nil {
			st.tspec.ForceMiss = e.inj.CompressMiss
		}
		st.tg = tlr.BuildGenCholeskyGraph(st.tm, st.tspec, true)
		if st.cache != nil {
			st.cache.Bind(st.tm)
		}
		cntCacheTLRMiss.Inc()
	} else {
		cntCacheTLRHit.Inc()
	}
	st.tspec.K = k
	st.tspec.Nugget = nugget
	err := e.run(st.tg)
	if st.cache != nil {
		// a tile that could not be read back came back empty: whatever the
		// run made of it is void, a failed pivot included
		if serr := st.cache.Err(); serr != nil {
			return nil, fmt.Errorf("core: out-of-core spill: %w", serr)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("core: %s factorization: %w", e.cfg.Mode, err)
	}
	return memFactor{st.tm}, nil
}

// Close releases the out-of-core spill file; a no-op for in-memory sessions.
func (st *tlrState) Close() error {
	if st.cache == nil {
		return nil
	}
	return st.cache.Close()
}

// storeStats reports the spill cache's peak resident bytes and spill-file
// size for Session.StoreStats, once the session has factored.
func (st *tlrState) storeStats() (highWater, spilled int64, ok bool) {
	if st.cache == nil || st.tm == nil {
		return 0, 0, false
	}
	return st.cache.HighWater(), st.cache.SpillSize(), true
}
