package obs

import (
	"encoding/json"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x.calls")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	if r.Counter("x.calls") != c {
		t.Fatal("counter lookup must return the same instrument")
	}
}

func TestHistogramObserveAndQuantile(t *testing.T) {
	h := &Histogram{}
	for _, v := range []int64{1, 2, 3, 100, 1000} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 5 || s.Sum != 1106 {
		t.Fatalf("count/sum = %d/%d", s.Count, s.Sum)
	}
	if s.Min != 1 || s.Max != 1000 {
		t.Fatalf("min/max = %d/%d", s.Min, s.Max)
	}
	if m := s.Mean(); m != 1106.0/5 {
		t.Fatalf("mean = %g", m)
	}
	// the median observation is 3; the bucket upper bound is < 4
	if q := s.Quantile(0.5); q < 3 || q > 4 {
		t.Fatalf("p50 = %d, want ~3", q)
	}
	if q := s.Quantile(1); q != 1000 {
		t.Fatalf("p100 = %d, want 1000 (clamped to max)", q)
	}
	if q := (HistSnapshot{}).Quantile(0.5); q != 0 {
		t.Fatalf("empty quantile = %d", q)
	}
}

func TestHistogramNegativeClampsToZero(t *testing.T) {
	h := &Histogram{}
	h.Observe(-5)
	s := h.Snapshot()
	if s.Count != 1 || s.Sum != 0 || s.Min != 0 || s.Max != 0 {
		t.Fatalf("negative observation mishandled: %+v", s)
	}
}

func TestSnapshotMergeAndSub(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Add(3)
	r.Histogram("h").Observe(8)

	before := r.Snapshot()
	r.Counter("a").Add(10)
	r.Histogram("h").Observe(16)
	d := r.Snapshot().Sub(before)
	if d.Counters["a"] != 10 {
		t.Fatalf("delta counter: %v", d.Counters)
	}
	if dh := d.Histograms["h"]; dh.Count != 1 || dh.Sum != 16 {
		t.Fatalf("delta histogram: %+v", dh)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Inc()
	r.Histogram("h").ObserveDuration(3 * time.Millisecond)
	data, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counters["c"] != 1 || back.Histograms["h"].Count != 1 {
		t.Fatalf("round trip lost data: %+v", back)
	}
}

// TestConcurrentInstruments hammers one registry from many goroutines; run
// under -race (make verify does) this is the data-race gate for the package.
func TestConcurrentInstruments(t *testing.T) {
	r := NewRegistry()
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Counter("calls").Inc()
				r.Histogram("vals").Observe(int64(i % 128))
				if i%100 == 0 {
					_ = r.Snapshot() // snapshots race against writers by design
				}
			}
		}()
	}
	wg.Wait()
	s := r.Snapshot()
	if s.Counters["calls"] != workers*per {
		t.Fatalf("calls = %d, want %d", s.Counters["calls"], workers*per)
	}
	if h := s.Histograms["vals"]; h.Count != workers*per || h.Min != 0 || h.Max != 127 {
		t.Fatalf("histogram: %+v", h)
	}
}

func TestDefaultRegistryHelpers(t *testing.T) {
	c := GetCounter("obs_test.unique.counter")
	c.Inc()
	if Default().Counter("obs_test.unique.counter") != c {
		t.Fatal("GetCounter must resolve into the default registry")
	}
	_ = GetHistogram("obs_test.unique.hist")
	s := Default().Snapshot()
	if _, ok := s.Counters["obs_test.unique.counter"]; !ok {
		t.Fatal("snapshot must include resolved instruments")
	}
}
