package runtime

import (
	"bytes"
	"encoding/json"
	"sort"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/rng"
)

func busyGraph(tasks int) *Graph {
	g := NewGraph()
	for i := 0; i < tasks; i++ {
		h := g.NewHandle("v", 8, 0)
		g.AddTask(Task{
			Name: "work",
			Run: func() {
				// a small but measurable task body
				s := 0.0
				for k := 0; k < 20000; k++ {
					s += float64(k)
				}
				_ = s
			},
			Accesses: []Access{{h, Write}},
		})
	}
	return g
}

func TestExecuteTracedRecordsAllTasks(t *testing.T) {
	g := busyGraph(24)
	tr, err := g.ExecuteTraced(ExecOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Events) != 24 {
		t.Fatalf("recorded %d events, want 24", len(tr.Events))
	}
	seen := map[int]bool{}
	for _, e := range tr.Events {
		if e.End < e.Start {
			t.Fatalf("event ends before it starts: %+v", e)
		}
		if e.Worker < 0 || e.Worker >= 4 {
			t.Fatalf("bad worker id %d", e.Worker)
		}
		if seen[e.ID] {
			t.Fatalf("task %d recorded twice", e.ID)
		}
		seen[e.ID] = true
	}
	if tr.Wall <= 0 {
		t.Fatal("wall time missing")
	}
}

func TestTraceUtilizationBounds(t *testing.T) {
	g := busyGraph(40)
	tr, err := g.ExecuteTraced(ExecOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	u := tr.Utilization()
	// Events and Wall share one epoch and events are clamped into [0, Wall],
	// so utilization is in (0, 1] by construction — no quantization slack.
	if u <= 0 || u > 1 {
		t.Fatalf("utilization %g out of bounds", u)
	}
	if tr.BusyTime() <= 0 {
		t.Fatal("busy time missing")
	}
}

// TestTraceSharedEpoch pins the clock-skew fix: every event must fall inside
// [0, Wall], and the derived schedule quantities must be consistent
// (critical path ≤ makespan ≤ wall).
func TestTraceSharedEpoch(t *testing.T) {
	g := busyGraph(30)
	tr, err := g.ExecuteTraced(ExecOptions{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range tr.Events {
		if e.Start < 0 || e.End > tr.Wall {
			t.Fatalf("event outside the trace window: %+v (wall %v)", e, tr.Wall)
		}
	}
	if tr.CritPath <= 0 {
		t.Fatal("critical path missing")
	}
	if tr.CritPath > tr.Makespan() {
		t.Fatalf("critical path %v exceeds makespan %v", tr.CritPath, tr.Makespan())
	}
	if tr.Makespan() > tr.Wall {
		t.Fatalf("makespan %v exceeds wall %v", tr.Makespan(), tr.Wall)
	}
}

// TestCriticalPathOfChain: a pure chain's critical path is (within timer
// noise) the whole busy time — every task is on the path.
func TestCriticalPathOfChain(t *testing.T) {
	g := NewGraph()
	h := g.NewHandle("v", 8, 0)
	for i := 0; i < 6; i++ {
		g.AddTask(Task{
			Name:     "step",
			Run:      func() { time.Sleep(time.Millisecond) },
			Accesses: []Access{{h, ReadWrite}},
		})
	}
	tr, err := g.ExecuteTraced(ExecOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if tr.CritPath != tr.BusyTime() {
		t.Fatalf("chain critical path %v != busy time %v", tr.CritPath, tr.BusyTime())
	}
}

func TestTraceByKernel(t *testing.T) {
	g := NewGraph()
	h1 := g.NewHandle("a", 8, 0)
	h2 := g.NewHandle("b", 8, 0)
	g.AddTask(Task{Name: "alpha", Run: func() { time.Sleep(time.Millisecond) }, Accesses: []Access{{h1, Write}}})
	g.AddTask(Task{Name: "beta", Run: func() { time.Sleep(time.Millisecond) }, Accesses: []Access{{h2, Write}}})
	tr, err := g.ExecuteTraced(ExecOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	byK := tr.ByKernel()
	if byK["alpha"] <= 0 || byK["beta"] <= 0 {
		t.Fatalf("kernel aggregation missing entries: %v", byK)
	}
}

func TestExecuteTracedPropagatesErrors(t *testing.T) {
	g := NewGraph()
	h := g.NewHandle("a", 8, 0)
	g.AddTask(Task{Name: "boom", Run: func() { panic("x") }, Accesses: []Access{{h, Write}}})
	if _, err := g.ExecuteTraced(ExecOptions{Workers: 1}); err == nil {
		t.Fatal("expected error from panicking task")
	}
}

// TestExecuteTracedConcurrent is the -race gate for the per-worker event
// buffers: several wide graphs traced simultaneously from separate
// goroutines, each with many workers hammering its own recorder.
func TestExecuteTracedConcurrent(t *testing.T) {
	const graphs = 4
	var wg sync.WaitGroup
	errs := make([]error, graphs)
	traces := make([]*Trace, graphs)
	for i := 0; i < graphs; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			g := busyGraph(64)
			traces[i], errs[i] = g.ExecuteTraced(ExecOptions{Workers: 8})
		}()
	}
	wg.Wait()
	for i := 0; i < graphs; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if len(traces[i].Events) != 64 {
			t.Fatalf("trace %d recorded %d events, want 64", i, len(traces[i].Events))
		}
		if u := traces[i].Utilization(); u <= 0 || u > 1 {
			t.Fatalf("trace %d utilization %g out of bounds", i, u)
		}
	}
}

// randomDAG builds a random task graph with declared flop costs for the
// schedule-invariant property tests.
func randomDAG(r *rng.Rand) *Graph {
	g := NewGraph()
	nHandles := 2 + r.Intn(6)
	handles := make([]*Handle, nHandles)
	for i := range handles {
		handles[i] = g.NewHandle("h", 64, 0)
	}
	for id := 0; id < 4+r.Intn(40); id++ {
		nAcc := 1 + r.Intn(3)
		acc := make([]Access, 0, nAcc)
		used := map[int]bool{}
		for a := 0; a < nAcc; a++ {
			h := r.Intn(nHandles)
			if used[h] {
				continue
			}
			used[h] = true
			mode := Read
			if r.Intn(2) == 0 {
				mode = ReadWrite
			}
			acc = append(acc, Access{handles[h], mode})
		}
		g.AddTask(Task{Name: "t", Flops: 1 + float64(r.Intn(1000)), Accesses: acc})
	}
	return g
}

// TestSimulateTraceHonoursBarrier: with Barrier, Simulate prices the list
// schedule of withBarriers' graph — the same makespan schedule reports for it,
// no less than the asynchronous one, one zero-length "barrier" task closing
// each level, and no task of a level starting before the barrier of the one
// before.
func TestSimulateTraceHonoursBarrier(t *testing.T) {
	g := randomDAG(rng.New(14))
	want, err := g.Simulate(SimOptions{Workers: 3, Barrier: true})
	if err != nil {
		t.Fatal(err)
	}
	async, _ := g.Simulate(SimOptions{Workers: 3})
	type placement struct {
		barrier       bool
		start, finish float64
	}
	var placed []placement
	b, cost := g.withBarriers(func(t *Task) float64 { return t.Flops })
	mk, err := b.schedule(3, cost, func(t *Task, _ int, start, finish float64) {
		placed = append(placed, placement{t.Name == "barrier", start, finish})
	})
	if err != nil {
		t.Fatal(err)
	}
	if mk != want || mk < async {
		t.Fatalf("barrier schedule makespan %g, Simulate %g, async %g", mk, want, async)
	}
	sort.Slice(placed, func(i, j int) bool { return placed[i].start < placed[j].start })
	var barriers int
	var lastBarrier float64
	for _, p := range placed {
		if p.barrier {
			barriers++
			if p.finish != p.start {
				t.Fatalf("barrier lasts %g", p.finish-p.start)
			}
			lastBarrier = p.start
		} else if p.start < lastBarrier {
			t.Fatalf("task starts at %g, before the barrier at %g", p.start, lastBarrier)
		}
	}
	if barriers == 0 || len(placed) != g.Len()+barriers {
		t.Fatalf("%d placements for %d tasks and %d barriers", len(placed), g.Len(), barriers)
	}
}

// TestQuickExecuteTracedInvariants: for real traced runs the robust subset of
// the invariants must hold — critical path ≤ makespan ≤ wall, utilization in
// [0, 1]. (Makespan ≤ busy time is NOT asserted here: real scheduling
// overhead can idle all workers between tasks, which is exactly the gap the
// trace exists to expose.)
func TestQuickExecuteTracedInvariants(t *testing.T) {
	f := func(seed int64) bool {
		r := rng.New(uint64(seed) + 12)
		g := randomDAG(r)
		tr, err := g.ExecuteTraced(ExecOptions{Workers: 1 + r.Intn(8)})
		if err != nil {
			return false
		}
		if tr.CritPath > tr.Makespan() {
			return false
		}
		if tr.Makespan() > tr.Wall {
			return false
		}
		if u := tr.Utilization(); u < 0 || u > 1 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestWriteChromeTraceSchema validates the Chrome trace-event JSON envelope:
// metadata events naming process and threads, one complete ("X") event per
// task with ts/dur in microseconds and flop/byte/gflops args, and the
// "displayTimeUnit" the viewers expect.
func TestWriteChromeTraceSchema(t *testing.T) {
	g := busyGraph(8)
	tr, err := g.ExecuteTraced(ExecOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf, "dense"); err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			TsUS  float64        `json:"ts"`
			DurUS float64        `json:"dur"`
			PID   int            `json:"pid"`
			TID   int            `json:"tid"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if file.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", file.DisplayTimeUnit)
	}
	var nX, nMeta int
	processNamed := false
	for _, e := range file.TraceEvents {
		switch e.Phase {
		case "M":
			nMeta++
			if e.Name == "process_name" && e.Args["name"] == "dense" {
				processNamed = true
			}
		case "X":
			nX++
			if e.TsUS < 0 || e.DurUS < 0 {
				t.Fatalf("negative ts/dur: %+v", e)
			}
			if e.TID < 0 || e.TID >= 2 {
				t.Fatalf("bad tid: %+v", e)
			}
			for _, k := range []string{"id", "flops", "bytes", "gflops"} {
				if _, ok := e.Args[k]; !ok {
					t.Fatalf("X event missing arg %q: %+v", k, e)
				}
			}
		}
	}
	if nX != 8 {
		t.Fatalf("%d complete events, want 8", nX)
	}
	if nMeta != 3 { // process_name + 2 thread_name
		t.Fatalf("%d metadata events, want 3", nMeta)
	}
	if !processNamed {
		t.Fatal("process_name metadata missing")
	}
}

// TestWriteChromeTracesMultiProcess: two traces in one file get distinct pids.
func TestWriteChromeTracesMultiProcess(t *testing.T) {
	g1, g2 := busyGraph(3), busyGraph(3)
	tr1, err := g1.ExecuteTraced(ExecOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	tr2, err := g2.ExecuteTraced(ExecOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteChromeTraces(&buf, NamedTrace{"dense", tr1}, NamedTrace{"tlr", tr2}); err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []struct {
			PID int `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatal(err)
	}
	pids := map[int]bool{}
	for _, e := range file.TraceEvents {
		pids[e.PID] = true
	}
	if !pids[0] || !pids[1] || len(pids) != 2 {
		t.Fatalf("pids = %v, want {0, 1}", pids)
	}
}
