package core

import (
	"testing"
)

// TestSessionMetricsTracedTile: a FullTile session with tracing enabled must
// produce a trace of the combined dcmg+Cholesky DAG, with utilization in
// [0, 1] and critical path ≤ makespan, and the cache counters must show the
// graph being reused across evaluations.
func TestSessionMetricsTracedTile(t *testing.T) {
	p := smallProblem(t, 64, 11)
	s, err := NewSession(p, Config{Mode: FullTile, TileSize: 16, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	// Before tracing: no trace, whatever evaluations run.
	if _, err := s.LogLikelihood(theta()); err != nil {
		t.Fatal(err)
	}
	if m := s.Metrics(); m.Trace != nil {
		t.Fatal("trace recorded before EnableTracing")
	}

	s.EnableTracing()
	before := s.Metrics().Obs
	if _, err := s.LogLikelihood(theta()); err != nil {
		t.Fatal(err)
	}
	m := s.Metrics()
	if m.Trace == nil {
		t.Fatal("no trace after EnableTracing + evaluation")
	}
	// MT = 4: 10 dcmg + 4 potrf + 6 trsm + 6 syrk + 4 gemm = 30 tasks
	if len(m.Trace.Events) != 30 {
		t.Fatalf("trace has %d events, want 30", len(m.Trace.Events))
	}
	if u := m.Trace.Utilization(); u <= 0 || u > 1 {
		t.Fatalf("utilization %g out of [0,1]", u)
	}
	if m.Trace.CritPath <= 0 || m.Trace.CritPath > m.Trace.Makespan() {
		t.Fatalf("critical path %v vs makespan %v", m.Trace.CritPath, m.Trace.Makespan())
	}
	if m.Comm != nil {
		t.Fatal("shared-memory session must not report comm stats")
	}

	// Phase delta: the traced evaluation was a cache hit (graph reused) and
	// ran the full dcmg sweep again.
	d := m.Obs.Sub(before)
	if d.Counters["core.cache.tilegraph.hit"] != 1 || d.Counters["core.cache.tilegraph.miss"] != 0 {
		t.Fatalf("cache counters wrong: hit=%d miss=%d",
			d.Counters["core.cache.tilegraph.hit"], d.Counters["core.cache.tilegraph.miss"])
	}
	if d.Counters["tile.dcmg.calls"] != 10 {
		t.Fatalf("dcmg calls = %d, want 10", d.Counters["tile.dcmg.calls"])
	}
	// The fused graph and nothing else: for MT = 4, 10 dcmg + 4 potrf +
	// 6 trsm + 6 syrk + 4 gemm = 30 tasks. HalfSolve is a serial sweep, not
	// a graph (it was 4 trsv + 6 gemv tasks more, 40, while it was one).
	if d.Counters["runtime.tasks.completed"] != 30 {
		t.Fatalf("completed tasks = %d, want 30", d.Counters["runtime.tasks.completed"])
	}
}

// TestSessionMetricsTLRRankHistogram: a traced TLR evaluation must populate
// the compression-rank histogram and the TLR cache counters.
func TestSessionMetricsTLRRankHistogram(t *testing.T) {
	p := smallProblem(t, 64, 12)
	s, err := NewSession(p, Config{Mode: TLR, TileSize: 16, Accuracy: 1e-7, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	before := s.Metrics().Obs
	if _, err := s.LogLikelihood(theta()); err != nil {
		t.Fatal(err)
	}
	d := s.Metrics().Obs.Sub(before)
	// MT = 4 → 6 off-diagonal tiles compressed
	if d.Counters["tlr.compress.calls"] != 6 {
		t.Fatalf("compress calls = %d, want 6", d.Counters["tlr.compress.calls"])
	}
	// Sub differences counts and sums; Min/Max are copied from the cumulative
	// snapshot (extrema don't difference), so bound the delta's MEAN rank —
	// 6 tiles of at most 16 columns each.
	h := d.Histograms["tlr.compress.rank"]
	if h.Count != 6 || h.Sum <= 0 || h.Mean() > 16 {
		t.Fatalf("rank histogram: %+v (mean %g)", h, h.Mean())
	}
	if d.Counters["core.cache.tlrgraph.miss"] != 1 {
		t.Fatalf("tlr graph miss = %d, want 1", d.Counters["core.cache.tlrgraph.miss"])
	}
}

// TestSessionMetricsDistComm: a traced distributed session reports per-rank
// comm stats and no trace — the ranks run no shared-memory task graph.
func TestSessionMetricsDistComm(t *testing.T) {
	p := smallProblem(t, 64, 13)
	s, err := NewSession(p, Config{Mode: TLR, TileSize: 16, Accuracy: 1e-7, Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	s.EnableTracing()
	if _, err := s.LogLikelihood(theta()); err != nil {
		t.Fatal(err)
	}
	m := s.Metrics()
	if len(m.Comm) != 4 {
		t.Fatalf("comm stats for %d ranks, want 4", len(m.Comm))
	}
	var sent int64
	for _, c := range m.Comm {
		sent += c.MsgsSent
	}
	if sent == 0 {
		t.Fatal("no cross-rank messages recorded")
	}
	if m.Trace != nil {
		t.Fatalf("trace on ranks: %d events", len(m.Trace.Events))
	}
}
