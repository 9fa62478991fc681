package runtime

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// TraceEvent records one task execution.
type TraceEvent struct {
	Task   string
	ID     int
	Worker int
	Start  time.Duration // offset from the trace epoch
	End    time.Duration
	// Flops is the task's declared arithmetic cost (0 when undeclared);
	// together with the measured duration it yields achieved GFLOP/s.
	Flops float64
	// Bytes is the payload size touched by the task (sum of its data
	// handles, read after execution so rank-dependent SetBytes updates are
	// reflected).
	Bytes int64
}

// Duration returns the event's elapsed time.
func (e TraceEvent) Duration() time.Duration { return e.End - e.Start }

// GFlops returns the achieved GFLOP/s of the event (0 when the duration or
// flop count is zero).
func (e TraceEvent) GFlops() float64 {
	d := e.Duration().Seconds()
	if d <= 0 || e.Flops <= 0 {
		return 0
	}
	return e.Flops / d / 1e9
}

// Trace is the execution record of a graph run — the observability layer
// StarPU provides via its FXT traces. All events and Wall share one epoch
// (the instant ExecuteTraced started), and events are clamped into
// [0, Wall], so Utilization() is in [0, 1] by construction.
type Trace struct {
	Workers int
	Wall    time.Duration
	// CritPath is the longest dependency chain under the MEASURED task
	// durations — the executed DAG's lower bound on wall time at any worker
	// count. Comparing it with Makespan() quantifies the idle time the
	// paper's trace figures argue about, computed instead of eyeballed.
	CritPath time.Duration
	Events   []TraceEvent
}

// ExecuteTraced runs the graph like Execute while recording per-task timing.
// A partial trace (the tasks that ran before the failure) is returned
// alongside any execution error.
func (g *Graph) ExecuteTraced(opt ExecOptions) (*Trace, error) {
	workers := opt.Workers
	if workers < 1 {
		workers = 1
	}
	tr := &Trace{Workers: workers}
	// One epoch for events AND Wall. Taking two time.Now() readings (one
	// for the recorder base, one for the wall start) lets event offsets and
	// Wall disagree by the gap between them: Utilization() could exceed 1.
	rec := &recorder{base: time.Now(), events: make([][]TraceEvent, workers)}
	err := g.execute(opt, rec)
	tr.Wall = time.Since(rec.base)
	for _, evs := range rec.events {
		tr.Events = append(tr.Events, evs...)
	}
	// Clamp into [0, Wall]: with the shared epoch every event already falls
	// inside the window, so clamping only absorbs timer quantization noise —
	// but Utilization wants hard bounds.
	for i := range tr.Events {
		e := &tr.Events[i]
		if e.Start < 0 {
			e.Start = 0
		}
		if e.End > tr.Wall {
			e.End = tr.Wall
		}
		if e.End < e.Start {
			e.End = e.Start
		}
	}
	sort.Slice(tr.Events, func(i, j int) bool { return tr.Events[i].Start < tr.Events[j].Start })
	tr.CritPath = g.criticalPathMeasured(tr.Events)
	return tr, err
}

// recorder collects events per worker without cross-worker locking.
type recorder struct {
	base   time.Time
	events [][]TraceEvent
}

func (r *recorder) record(worker int, t *Task, start, end time.Time) {
	var bytes int64
	for _, a := range t.Accesses {
		bytes += a.Handle.Bytes
	}
	r.events[worker] = append(r.events[worker], TraceEvent{
		Task:   t.Name,
		ID:     t.ID,
		Worker: worker,
		Start:  start.Sub(r.base),
		End:    end.Sub(r.base),
		Flops:  t.Flops,
		Bytes:  bytes,
	})
}

// criticalPathMeasured returns the longest dependency chain weighted by the
// durations in events (tasks without an event weigh zero — partial traces
// from failed runs yield the critical path of what actually executed).
func (g *Graph) criticalPathMeasured(events []TraceEvent) time.Duration {
	n := len(g.tasks)
	if n == 0 {
		return 0
	}
	dur := make([]time.Duration, n)
	for _, e := range events {
		if e.ID >= 0 && e.ID < n {
			dur[e.ID] = e.End - e.Start
		}
	}
	finish := make([]time.Duration, n)
	var best time.Duration
	// tasks are topologically ordered by construction (deps have smaller IDs)
	for i, t := range g.tasks {
		var start time.Duration
		for _, d := range t.deps {
			if finish[d] > start {
				start = finish[d]
			}
		}
		finish[i] = start + dur[i]
		if finish[i] > best {
			best = finish[i]
		}
	}
	return best
}

// BusyTime returns the summed task durations (all workers).
func (tr *Trace) BusyTime() time.Duration {
	var d time.Duration
	for _, e := range tr.Events {
		d += e.End - e.Start
	}
	return d
}

// Makespan returns the finish time of the last event — the measured schedule
// length. It can be marginally below Wall (Wall includes the teardown between
// the last task and the executor's return).
func (tr *Trace) Makespan() time.Duration {
	var m time.Duration
	for _, e := range tr.Events {
		if e.End > m {
			m = e.End
		}
	}
	return m
}

// Utilization returns busy time / (workers × wall), clamped into [0, 1].
// With the shared epoch and clamped events each worker's busy intervals are
// disjoint subsets of [0, Wall], so the ratio cannot exceed 1; the clamp
// guards the floating-point division.
func (tr *Trace) Utilization() float64 {
	if tr.Wall <= 0 || tr.Workers == 0 {
		return 0
	}
	u := float64(tr.BusyTime()) / (float64(tr.Wall) * float64(tr.Workers))
	if u < 0 {
		return 0
	}
	if u > 1 {
		return 1
	}
	return u
}

// ByKernel aggregates busy time per task name.
func (tr *Trace) ByKernel() map[string]time.Duration {
	m := make(map[string]time.Duration)
	for _, e := range tr.Events {
		m[e.Task] += e.End - e.Start
	}
	return m
}

// TotalFlops sums the flop annotations over all events.
func (tr *Trace) TotalFlops() float64 {
	var s float64
	for _, e := range tr.Events {
		s += e.Flops
	}
	return s
}

// ---- Chrome trace-event export -------------------------------------------

// chromeEvent is one entry of the Chrome trace-event JSON format
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU),
// loadable in Perfetto (ui.perfetto.dev) and chrome://tracing.
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Phase string         `json:"ph"`
	TsUS  float64        `json:"ts"`
	DurUS float64        `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// chromeTraceFile is the top-level JSON object.
type chromeTraceFile struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// NamedTrace labels one trace for multi-process Chrome export; each trace
// becomes one pid row group in Perfetto.
type NamedTrace struct {
	Name  string
	Trace *Trace
}

// WriteChromeTrace writes the trace as Chrome trace-event JSON under the
// given process name. Open the file in Perfetto (ui.perfetto.dev) or
// chrome://tracing. Each task is a complete ("X") event on its worker's
// thread lane annotated with flops, bytes, and achieved GFLOP/s; an event
// of zero duration (below the clock's resolution, or clamped at Wall)
// becomes an instant ("i") event.
func (tr *Trace) WriteChromeTrace(w io.Writer, process string) error {
	return WriteChromeTraces(w, NamedTrace{Name: process, Trace: tr})
}

// WriteChromeTraces writes several traces into one Chrome trace-event file,
// one pid per trace (dense vs TLR side by side in a single Perfetto view).
func WriteChromeTraces(w io.Writer, traces ...NamedTrace) error {
	out := chromeTraceFile{DisplayTimeUnit: "ms", TraceEvents: []chromeEvent{}}
	for pid, nt := range traces {
		tr := nt.Trace
		if tr == nil {
			return fmt.Errorf("runtime: nil trace %q", nt.Name)
		}
		name := nt.Name
		if name == "" {
			name = fmt.Sprintf("trace %d", pid)
		}
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: "process_name", Phase: "M", PID: pid,
			Args: map[string]any{"name": name},
		})
		for wk := 0; wk < tr.Workers; wk++ {
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: "thread_name", Phase: "M", PID: pid, TID: wk,
				Args: map[string]any{"name": fmt.Sprintf("worker %d", wk)},
			})
		}
		for _, e := range tr.Events {
			ce := chromeEvent{
				Name: e.Task,
				Cat:  "task",
				TsUS: float64(e.Start) / float64(time.Microsecond),
				PID:  pid,
				TID:  e.Worker,
				Args: map[string]any{
					"id":    e.ID,
					"flops": e.Flops,
					"bytes": e.Bytes,
				},
			}
			if d := e.Duration(); d > 0 {
				ce.Phase = "X"
				ce.DurUS = float64(d) / float64(time.Microsecond)
				ce.Args["gflops"] = e.GFlops()
			} else {
				ce.Phase = "i"
				ce.Scope = "t"
			}
			out.TraceEvents = append(out.TraceEvents, ce)
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}
