// Package obs is the lightweight metrics layer threaded through the compute
// stack: counters (kernel invocations, cache hits) and power-of-two
// histograms (compression ranks, task durations). All instruments are
// lock-free on the hot path — one atomic add per observation — and snapshot
// into plain values, so two snapshots can be differenced to isolate one phase
// without touching the live instruments.
//
// The package keeps one default registry; call sites resolve their
// instruments once at package init (obs.GetCounter("la.gemm.calls")) and hit
// only the atomic afterwards. Names are dotted paths, "layer.object.what":
// la.gemm.calls, tlr.compress.rank, core.cache.tilegraph.hit, mpi.bytes.sent.
package obs

import (
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing count.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds d (d must be ≥ 0; counters only grow).
func (c *Counter) Add(d int64) { c.v.Add(d) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// histBuckets is the fixed bucket count: bucket i holds values v with
// bitlen(v) == i, i.e. v in [2^(i-1), 2^i). Bucket 0 holds v ≤ 0.
const histBuckets = 64

// Histogram accumulates non-negative int64 observations (durations in
// nanoseconds, ranks, byte counts) into power-of-two buckets. The exponential
// bucketing keeps the memory constant and the relative quantile error below
// 2× at any scale — the right trade for "is the rank 8 or 80" and "is the
// task 1µs or 1ms" questions.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	min     atomic.Int64 // stores minimum+1 so zero means "unset"
	max     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// Observe records one value (negative values clamp to 0).
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bits.Len64(uint64(v))%histBuckets].Add(1)
	for {
		cur := h.min.Load()
		if cur != 0 && cur <= v+1 {
			break
		}
		if h.min.CompareAndSwap(cur, v+1) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if cur >= v {
			break
		}
		if h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// ObserveDuration records a duration in nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(int64(d)) }

// Snapshot captures the histogram's current state.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{
		Count: h.count.Load(),
		Sum:   h.sum.Load(),
		Max:   h.max.Load(),
	}
	if m := h.min.Load(); m > 0 {
		s.Min = m - 1
	}
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n != 0 {
			if s.Buckets == nil {
				s.Buckets = map[int]int64{}
			}
			s.Buckets[i] = n
		}
	}
	return s
}

// HistSnapshot is a point-in-time copy of a Histogram.
type HistSnapshot struct {
	Count int64 `json:"count"`
	Sum   int64 `json:"sum"`
	Min   int64 `json:"min"`
	Max   int64 `json:"max"`
	// Buckets maps bucket index i (values in [2^(i-1), 2^i)) to counts;
	// empty buckets are omitted.
	Buckets map[int]int64 `json:"buckets,omitempty"`
}

// Mean returns the mean observation, 0 when empty.
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile returns an upper bound on the q-quantile (q in [0, 1]) from the
// bucket boundaries — exact to within the 2× bucket width.
func (s HistSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := int64(math.Ceil(q * float64(s.Count)))
	if target < 1 {
		target = 1
	}
	idxs := make([]int, 0, len(s.Buckets))
	for i := range s.Buckets {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	var seen int64
	for _, i := range idxs {
		seen += s.Buckets[i]
		if seen >= target {
			if i == 0 {
				return 0
			}
			hi := int64(1) << i // exclusive upper edge of bucket i
			if hi-1 > s.Max {
				return s.Max
			}
			return hi - 1
		}
	}
	return s.Max
}

// Registry owns named instruments. Lookup is mutex-guarded (cold path);
// returned instruments are lock-free.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		hists:    map[string]*Histogram{},
	}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry the compute layers report into.
func Default() *Registry { return defaultRegistry }

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// GetCounter resolves a counter in the default registry (call-once idiom:
// resolve at package init, Inc on the hot path).
func GetCounter(name string) *Counter { return defaultRegistry.Counter(name) }

// GetHistogram resolves a histogram in the default registry.
func GetHistogram(name string) *Histogram { return defaultRegistry.Histogram(name) }

// Snapshot is a point-in-time copy of a registry: plain values, safe to
// marshal or difference. Zero-valued instruments are included so a
// snapshot always names every instrument that has been resolved.
type Snapshot struct {
	Counters   map[string]int64        `json:"counters,omitempty"`
	Histograms map[string]HistSnapshot `json:"histograms,omitempty"`
}

// Snapshot captures every instrument in the registry.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Histograms: make(map[string]HistSnapshot, len(r.hists)),
	}
	for n, c := range r.counters {
		s.Counters[n] = c.Value()
	}
	for n, h := range r.hists {
		s.Histograms[n] = h.Snapshot()
	}
	return s
}

// Sub returns the per-instrument delta s − prev for counters and histogram
// counts/sums (bucket-wise; Min/Max are copied from s since extrema don't
// difference) — the idiom for measuring one phase.
func (s Snapshot) Sub(prev Snapshot) Snapshot {
	out := Snapshot{
		Counters:   map[string]int64{},
		Histograms: map[string]HistSnapshot{},
	}
	for n, v := range s.Counters {
		out.Counters[n] = v - prev.Counters[n]
	}
	for n, h := range s.Histograms {
		p := prev.Histograms[n]
		d := HistSnapshot{Count: h.Count - p.Count, Sum: h.Sum - p.Sum, Min: h.Min, Max: h.Max}
		for i, c := range h.Buckets {
			if dc := c - p.Buckets[i]; dc != 0 {
				if d.Buckets == nil {
					d.Buckets = map[int]int64{}
				}
				d.Buckets[i] = dc
			}
		}
		out.Histograms[n] = d
	}
	return out
}
