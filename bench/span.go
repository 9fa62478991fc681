package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer: what ran, when, and which span caused
// it. Spans of one operation (one evaluation, one request) share a run id.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // 0 = root
	Run    int           `json:"run"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start"` // offset from the recorder's epoch
	End    time.Duration `json:"end"`

	rec *recorder
}

// recorder keeps spans in memory until the benchmark ends. A nil recorder is
// the untraced pass: start returns nil and end on a nil span does nothing, so
// the same workload code runs in both passes and their difference is the
// tracing overhead.
type recorder struct {
	epoch time.Time

	mu    sync.Mutex
	spans []*span
	runs  int
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// newRun allocates the identifier the spans of one operation share.
func (r *recorder) newRun() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.runs++
	return r.runs
}

// start opens a span under parent (nil for a root span of run).
func (r *recorder) start(parent *span, run int, name string) *span {
	if r == nil {
		return nil
	}
	s := &span{Name: name, Run: run, rec: r}
	if parent != nil {
		s.Parent, s.Run = parent.ID, parent.Run
	}
	r.mu.Lock()
	s.ID = len(r.spans) + 1
	r.spans = append(r.spans, s)
	r.mu.Unlock()
	s.Start = time.Since(r.epoch)
	return s
}

// end closes the span and returns its duration (0 on the untraced pass).
func (s *span) end() time.Duration {
	if s == nil {
		return 0
	}
	s.End = time.Since(s.rec.epoch)
	return s.End - s.Start
}

// timed runs f inside a span and returns f's wall time, measured the same way
// whether or not a recorder is attached.
func (r *recorder) timed(parent *span, run int, name string, f func(sp *span)) time.Duration {
	sp := r.start(parent, run, name)
	t0 := time.Now()
	f(sp)
	d := time.Since(t0)
	sp.end()
	return d
}

// selfTimes returns, per span id, the span's duration minus the part of its
// interval its direct children cover. Overlapping children (parallel parts)
// are merged first, and children are clipped to the parent's interval.
func selfTimes(spans []*span) map[int]time.Duration {
	children := map[int][]*span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered, hi time.Duration
		hi = s.Start
		for _, k := range kids {
			lo, end := max(k.Start, hi), min(k.End, s.End)
			if end > lo {
				covered += end - lo
				hi = end
			}
		}
		out[s.ID] = (s.End - s.Start) - covered
	}
	return out
}

// chromeEvent is one complete ("X") event of the Chrome trace-event format,
// loadable in Perfetto or chrome://tracing.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	PID  int            `json:"pid"`
	TID  int            `json:"tid"` // run id: one lane per operation
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes the recorded spans as Chrome trace-event JSON.
func (r *recorder) writeChrome(path string) error {
	r.mu.Lock()
	spans := append([]*span(nil), r.spans...)
	r.mu.Unlock()
	self := selfTimes(spans)
	evs := make([]chromeEvent, 0, len(spans))
	for _, s := range spans {
		evs = append(evs, chromeEvent{
			Name: s.Name, Ph: "X", PID: 1, TID: s.Run,
			TS: micros(s.Start), Dur: micros(s.End - s.Start),
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "self_us": micros(self[s.ID])},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
