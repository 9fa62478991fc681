package core

import (
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/runtime"
)

// Metrics bundles a session's observability outputs: the process-wide
// instrument snapshot (kernel invocation counts, compression-rank histogram,
// cache hit/miss counters), the most recent execution trace, and per-rank
// communication statistics for distributed sessions.
type Metrics struct {
	// Obs is a snapshot of the default instrument registry. Differencing
	// two snapshots (obs.Snapshot.Sub) isolates one phase; counters of
	// interest include la.*.calls, tile.dcmg.calls, tlr.compress.calls,
	// core.cache.*.{hit,miss}, runtime.tasks.*, mpi.{msgs,bytes}.sent, and
	// the histogram tlr.compress.rank.
	Obs obs.Snapshot
	// Trace is the most recent task-graph execution trace (nil until
	// EnableTracing is called and a graph-backed evaluation runs; always nil
	// for FullBlock and on ranks, which run no shared-memory task graph —
	// Comm is what a distributed session reports).
	Trace *runtime.Trace
	// Comm is the per-rank cumulative traffic (nil for shared-memory
	// sessions) of the World the session runs on now: Config.Ranks −
	// RanksLost entries, counted since that World was built.
	Comm []mpi.CommStats
	// FactorFailures counts this session's failed factorization attempts;
	// NuggetEscalations counts how many were answered by growing the nugget
	// tenfold. LastFactorFailure is the most recent failure's message, empty
	// if none — together they say whether a fit degraded gracefully and why.
	FactorFailures    int64
	NuggetEscalations int64
	LastFactorFailure string
	// Replays counts the evaluations re-run from generation after a task
	// panic or a rank death (Config.MaxRetries); RanksLost how many ranks the
	// distributed world shrank by, one per replayed rank death (0 for
	// shared-memory sessions).
	Replays   int64
	RanksLost int
}

// EnableTracing switches the session's shared-memory graph executions to
// traced mode: every subsequent factorization records per-task timings
// (retrievable via Metrics().Trace, which keeps the most recent one). It
// records nothing in FullBlock or on ranks. Call it before the evaluations
// of interest; tracing adds two time.Now() calls per task and is safe to
// leave on.
func (s *Session) EnableTracing() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ev.trace = true
}

// Metrics returns the session's current observability state. The Obs
// snapshot is process-wide (all sessions share the default registry); Trace
// and Comm are per-session.
func (s *Session) Metrics() Metrics {
	m := Metrics{Obs: obs.Default().Snapshot()}
	s.mu.RLock()
	defer s.mu.RUnlock()
	d := s.ev.diag
	m.FactorFailures = d.FactorFailures
	m.NuggetEscalations = d.NuggetEscalations
	m.LastFactorFailure = d.LastFailure
	m.Replays = d.Replays
	m.Trace = s.ev.lastTrace
	if r := s.ranks(); r != nil {
		m.Comm = r.commStats()
		m.RanksLost = s.ev.cfg.Ranks - r.world.Size()
	}
	return m
}
