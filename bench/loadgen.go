package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// outcome classifies one request as the client saw it.
type outcome int

const (
	reqOK outcome = iota
	reqShed
	reqFailed
)

// missedMS is the latency booked for a request that was refused or failed: it
// misses any limit, so it must sort above every real latency.
const missedMS = 1e9

// doFunc sends one request and blocks until its reply.
type doFunc func(ctx context.Context, q request) outcome

// loadResult is what one load phase observed, in schedule order.
type loadResult struct {
	Reqs    []request
	LatMS   []float64       // completion − due time (open loop) or − send time (closed loop)
	LagMS   []float64       // open loop: how late the generator released each request
	DoneAt  []time.Duration // closed loop: completion time since the phase began
	Sent    int
	OK      int
	Shed    int
	Failed  int
	Backlog int // requests still outstanding when the phase's time was up
	Elapsed time.Duration
}

func (r *loadResult) book(i int, o outcome, lat time.Duration) {
	r.LatMS[i] = missedMS
	if o == reqOK {
		r.LatMS[i] = millis(lat)
	}
}

// tally fills the counts from per-request outcomes.
func (r *loadResult) tally(outs []outcome) {
	r.Sent = len(outs)
	for _, o := range outs {
		switch o {
		case reqOK:
			r.OK++
		case reqShed:
			r.Shed++
		default:
			r.Failed++
		}
	}
}

// runOpenLoop releases every request of sched at its due time, whatever the
// replies are doing: independent users do not wait for one another. One
// dispatcher goroutine keeps the clock; each request then runs on its own
// goroutine, and the number on the wire at once is bounded by the transport
// behind do, not here. A request's latency runs from when it was due, so a
// stall is charged to every request that had to wait behind it, and LagMS
// says how much of that the generator itself caused. The phase lasts dur;
// requests still outstanding then are counted as backlog and waited for.
func runOpenLoop(ctx context.Context, sched []request, dur time.Duration, do doFunc) loadResult {
	res := loadResult{
		Reqs:  sched,
		LatMS: make([]float64, len(sched)),
		LagMS: make([]float64, len(sched)),
	}
	outs := make([]outcome, len(sched))
	var wg sync.WaitGroup
	var outstanding atomic.Int64
	start := time.Now()
	for i, q := range sched {
		if wait := q.Due - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		res.LagMS[i] = millis(time.Since(start) - q.Due)
		wg.Add(1)
		outstanding.Add(1)
		go func(i int, q request) {
			defer wg.Done()
			o := do(ctx, q)
			outs[i] = o
			res.book(i, o, time.Since(start)-q.Due)
			outstanding.Add(-1)
		}(i, q)
	}
	if wait := dur - time.Since(start); wait > 0 {
		time.Sleep(wait)
	}
	res.Backlog = int(outstanding.Load())
	wg.Wait()
	res.Elapsed = time.Since(start)
	res.tally(outs)
	return res
}

// runClosedLoop runs clients callers back to back for dur: each sends its
// next request only when the previous reply is in, so a slow server receives
// less load. Requests are taken from reqs in order, wrapping around.
func runClosedLoop(ctx context.Context, reqs []request, clients int, dur time.Duration, do doFunc) loadResult {
	type sample struct {
		q         request
		o         outcome
		lat, done time.Duration
	}
	per := make([][]sample, clients)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Since(start) < dur {
				q := reqs[int(next.Add(1)-1)%len(reqs)]
				t0 := time.Now()
				o := do(ctx, q)
				per[c] = append(per[c], sample{q, o, time.Since(t0), time.Since(start)})
			}
		}(c)
	}
	wg.Wait()
	var res loadResult
	res.Elapsed = time.Since(start)
	var outs []outcome
	for _, ss := range per {
		for _, s := range ss {
			res.Reqs = append(res.Reqs, s.q)
			res.LatMS = append(res.LatMS, 0)
			res.book(len(res.LatMS)-1, s.o, s.lat)
			res.DoneAt = append(res.DoneAt, s.done)
			outs = append(outs, s.o)
		}
	}
	res.tally(outs)
	return res
}

// extend appends a later open-loop phase of the same rate, its due times
// moved behind the dur of what r already holds, so the cycles stay aligned.
func (r *loadResult) extend(o loadResult, dur time.Duration) {
	for _, q := range o.Reqs {
		q.Due += r.Elapsed
		r.Reqs = append(r.Reqs, q)
	}
	r.LatMS = append(r.LatMS, o.LatMS...)
	r.LagMS = append(r.LagMS, o.LagMS...)
	r.Sent, r.OK, r.Shed, r.Failed = r.Sent+o.Sent, r.OK+o.OK, r.Shed+o.Shed, r.Failed+o.Failed
	r.Backlog = o.Backlog
	r.Elapsed += dur
}

// classLat returns the latencies of the requests of one class.
func (r *loadResult) classLat(variance bool) []float64 {
	var out []float64
	for i, q := range r.Reqs {
		if q.Var == variance {
			out = append(out, r.LatMS[i])
		}
	}
	return out
}

// cycleTails cuts an open-loop phase into whole cycles of the given length by
// due time (each holds one background ingest, so the cycles are alike) and
// returns the p-th latency percentile of each cycle.
func (r *loadResult) cycleTails(cycle time.Duration, p float64) []float64 {
	byCycle := map[int][]float64{}
	for i, q := range r.Reqs {
		byCycle[int(q.Due/cycle)] = append(byCycle[int(q.Due/cycle)], r.LatMS[i])
	}
	tails := make([]float64, 0, len(byCycle))
	for _, lat := range byCycle {
		tails = append(tails, percentile(lat, p))
	}
	return tails
}

// cycleTail is the p-th latency percentile of the typical cycle: the median
// over cycles. One disturbed cycle then moves one value, not the result.
func (r *loadResult) cycleTail(cycle time.Duration, p float64) float64 {
	return median(r.cycleTails(cycle, p))
}

// cycleBest is the p-th latency percentile of the quietest cycle, the one
// where it is lowest. Interference only ever adds latency, so this is the
// steadiest estimate on a shared machine.
func (r *loadResult) cycleBest(cycle time.Duration, p float64) float64 {
	return best(r.cycleTails(cycle, p))
}

// windowRate is the closed-loop completion rate, steadied: successful
// completions are counted in consecutive windows and the best window's rate
// is returned, per second. Like a compute timing, a closed loop only ever
// loses completions to interference (and to the ingest of its cycle), so the
// best window is the steadiest estimate of what the server sustains.
func (r *loadResult) windowRate(window time.Duration) float64 {
	n := int(r.Elapsed / window)
	if n == 0 {
		return float64(r.OK) / r.Elapsed.Seconds()
	}
	counts := make([]float64, n)
	for i, at := range r.DoneAt {
		if w := int(at / window); w < n && r.LatMS[i] != missedMS {
			counts[w]++
		}
	}
	return largest(counts) / window.Seconds()
}
