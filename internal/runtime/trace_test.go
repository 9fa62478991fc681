package runtime

import (
	"bytes"
	"encoding/json"
	"strings"
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

func TestGanttRendering(t *testing.T) {
	g := busyGraph(10)
	tr, err := g.ExecuteTraced(ExecOptions{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	out := tr.Gantt(60)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 { // header + 3 workers
		t.Fatalf("gantt rows: %d\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "utilization") {
		t.Fatalf("gantt header missing: %s", lines[0])
	}
	if !strings.Contains(out, "w") || !strings.Contains(out, "|") {
		t.Fatal("gantt body malformed")
	}
}

func TestGanttEmptyTrace(t *testing.T) {
	tr := &Trace{Workers: 2}
	if !strings.Contains(tr.Gantt(40), "empty") {
		t.Fatal("empty trace should render a placeholder")
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

// TestQuickSimulateTraceInvariants: for random DAGs at several worker counts,
// the simulated schedule obeys the exact invariants
//
//	critical path ≤ makespan ≤ busy time
//
// (a list schedule never lets every worker idle while work remains, so the
// makespan cannot exceed the serial work; and no schedule beats the longest
// dependency chain). The slack term absorbs only float→Duration rounding.
func TestQuickSimulateTraceInvariants(t *testing.T) {
	f := func(seed int64) bool {
		r := rng.New(uint64(seed) + 11)
		g := randomDAG(r)
		for _, w := range []int{1, 2, 4, 8} {
			tr, mk, err := g.SimulateTrace(SimOptions{Workers: w})
			if err != nil || mk <= 0 || tr.Wall <= 0 {
				return false
			}
			slack := time.Duration(2 * len(tr.Events)) // per-event rounding
			if tr.CritPath > tr.Makespan()+slack {
				t.Logf("seed %d w %d: crit %v > makespan %v", seed, w, tr.CritPath, tr.Makespan())
				return false
			}
			if tr.Makespan() > tr.BusyTime()+slack {
				t.Logf("seed %d w %d: makespan %v > busy %v", seed, w, tr.Makespan(), tr.BusyTime())
				return false
			}
			if u := tr.Utilization(); u <= 0 || u > 1 {
				return false
			}
			if len(tr.Events) != len(g.Tasks()) {
				return false
			}
			// 1 worker degenerates to serial execution: makespan == busy time
			if w == 1 {
				d := tr.Makespan() - tr.BusyTime()
				if d < -slack || d > slack {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestSimulateTraceHonoursBarrier: with Barrier the trace is the fork-join
// schedule Simulate prices — same makespan, one zero-length "barrier" event
// closing each level, no task of a level starting before the barrier of the
// one before — and it still obeys the schedule invariants.
func TestSimulateTraceHonoursBarrier(t *testing.T) {
	g := randomDAG(rng.New(14))
	opt := SimOptions{Workers: 3, Barrier: true}
	want, err := g.Simulate(opt)
	if err != nil {
		t.Fatal(err)
	}
	async, _ := g.Simulate(SimOptions{Workers: 3})
	tr, mk, err := g.SimulateTrace(opt)
	if err != nil {
		t.Fatal(err)
	}
	if mk != want || mk < async {
		t.Fatalf("barrier trace makespan %g, Simulate %g, async %g", mk, want, async)
	}
	var barriers int
	var lastBarrier time.Duration
	for _, e := range tr.Events { // sorted by start
		if e.Task == "barrier" {
			barriers++
			if e.Duration() != 0 {
				t.Fatalf("barrier event lasts %v", e.Duration())
			}
			lastBarrier = e.Start
		} else if e.Start < lastBarrier {
			t.Fatalf("task %d starts at %v, before the barrier at %v", e.ID, e.Start, lastBarrier)
		}
	}
	if barriers == 0 || len(tr.Events) != g.Len()+barriers {
		t.Fatalf("%d events for %d tasks and %d barriers", len(tr.Events), g.Len(), barriers)
	}
	if slack := time.Duration(2 * len(tr.Events)); tr.CritPath > tr.Makespan()+slack {
		t.Fatalf("critical path %v above makespan %v", tr.CritPath, tr.Makespan())
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

// TestMergeEventsCommLane: merged zero-duration comm events raise the worker
// count and become instant events in the Chrome export.
func TestMergeEventsCommLane(t *testing.T) {
	g := busyGraph(4)
	tr, err := g.ExecuteTraced(ExecOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	at := tr.Wall / 2
	tr.MergeEvents([]TraceEvent{{Task: "send r0->r1", Worker: 2, Start: at, End: at, Bytes: 1024}})
	if tr.Workers != 3 {
		t.Fatalf("workers = %d after merge, want 3", tr.Workers)
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf, "dist"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"ph":"i"`) {
		t.Fatal("zero-duration merged event did not export as an instant event")
	}
}
