package core

import (
	"fmt"

	"repro/internal/cov"
	"repro/internal/obs"
	"repro/internal/runtime"
	"repro/internal/tlr"
	"repro/internal/tlr/store"
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
// to an out-of-core tile store whose spill file lives as long as the state
// (released by Close).
type tlrState struct {
	taskGraph
	tm    *tlr.Matrix    // tile shell
	tspec *tlr.GenSpec   // mutable kernel/nugget slot read by the gen tasks
	tg    *runtime.Graph // fused generate+compress + factorization DAG
	st    *store.Store   // out-of-core tile store; nil when MemBudget == 0
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
		if e.cfg.MemBudget > 0 {
			gg := tlr.NewGenCholeskyGraph(st.tm, st.tspec, true)
			ts, err := store.NewTemp(e.cfg.SpillDir, e.cfg.MemBudget)
			if err != nil {
				return nil, fmt.Errorf("core: out-of-core spill file: %w", err)
			}
			tlr.AttachOOC(gg, st.tm, ts)
			st.tg, st.st = gg.G, ts
		} else {
			st.tg = tlr.BuildGenCholeskyGraph(st.tm, st.tspec, true)
		}
		cntCacheTLRMiss.Inc()
	} else {
		cntCacheTLRHit.Inc()
	}
	st.tspec.K = k
	st.tspec.Nugget = nugget
	if err := e.run(st.tg); err != nil {
		return nil, fmt.Errorf("core: %s factorization: %w", e.cfg.Mode, err)
	}
	if st.st != nil {
		if err := st.st.Err(); err != nil {
			return nil, fmt.Errorf("core: out-of-core spill: %w", err)
		}
	}
	return memFactor{st.tm}, nil
}

// Close releases the out-of-core spill file; a no-op for in-memory sessions.
func (st *tlrState) Close() error {
	if st.st == nil {
		return nil
	}
	return st.st.Close()
}

// storeStats reports the tile store's peak resident bytes and spill-file
// size for Session.StoreStats.
func (st *tlrState) storeStats() (highWater, spilled int64, ok bool) {
	if st.st == nil {
		return 0, 0, false
	}
	return st.st.HighWater(), st.st.SpillSize(), true
}
