package main

import (
	"context"
	"sync"
	"testing"
	"time"
)

// stallingServer serves one request at a time, 1 ms each, except that the
// request with index stallAt holds the server for stall.
type stallingServer struct {
	mu      sync.Mutex
	stallAt int
	stall   time.Duration
}

func (s *stallingServer) do(_ context.Context, q request) outcome {
	s.mu.Lock()
	defer s.mu.Unlock()
	if q.Lo == s.stallAt {
		time.Sleep(s.stall)
	} else {
		time.Sleep(time.Millisecond)
	}
	return reqOK
}

func TestOpenLoopChargesStallFromDueTime(t *testing.T) {
	// 100 requests, one every 5 ms; request 20 stalls the server for 100 ms.
	var sched []request
	for i := 0; i < 100; i++ {
		sched = append(sched, request{Due: time.Duration(i) * 5 * time.Millisecond, Lo: i})
	}
	srv := &stallingServer{stallAt: 20, stall: 100 * time.Millisecond}
	res := runOpenLoop(context.Background(), sched, 600*time.Millisecond, srv.do)

	if res.Sent != 100 || res.OK != 100 || res.Failed != 0 {
		t.Fatalf("sent %d ok %d failed %d", res.Sent, res.OK, res.Failed)
	}
	// The generator kept its schedule through the stall: an open loop does
	// not wait for replies.
	lag := percentile(res.LagMS, 99)
	if lag > 20 {
		t.Errorf("gen_lag_p99_ms = %.2f: the generator fell behind its own schedule", lag)
	}
	t.Logf("gen_lag_p99_ms = %.3f", lag)
	// Requests due during the stall waited for it, and that wait is in their
	// latency because the clock starts at the due time: request 30 was due
	// 50 ms into a 100 ms stall with ten requests queued ahead of it.
	if got := res.LatMS[30]; got < 50 {
		t.Errorf("latency of a request due mid-stall = %.1f ms, want >= 50", got)
	}
	if got := res.LatMS[10]; got > 30 {
		t.Errorf("latency before the stall = %.1f ms, want a few ms", got)
	}
	// The backlog drains at 1 ms per request against 5 ms arrivals.
	if got := res.LatMS[99]; got > 30 {
		t.Errorf("latency long after the stall = %.1f ms: backlog never drained", got)
	}
	if res.Backlog != 0 {
		t.Errorf("backlog at phase end = %d, want 0", res.Backlog)
	}
}

func TestOpenLoopCountsBacklogAndFailures(t *testing.T) {
	var sched []request
	for i := 0; i < 10; i++ {
		sched = append(sched, request{Due: time.Duration(i) * time.Millisecond, Lo: i, Var: i%2 == 0})
	}
	release := make(chan struct{})
	do := func(_ context.Context, q request) outcome {
		<-release
		switch q.Lo {
		case 3:
			return reqShed
		case 4:
			return reqFailed
		}
		return reqOK
	}
	go func() {
		time.Sleep(60 * time.Millisecond)
		close(release)
	}()
	res := runOpenLoop(context.Background(), sched, 30*time.Millisecond, do)
	if res.Backlog != 10 {
		t.Errorf("backlog = %d, want all 10 outstanding when the phase's time was up", res.Backlog)
	}
	if res.OK != 8 || res.Shed != 1 || res.Failed != 1 {
		t.Errorf("ok %d shed %d failed %d, want 8 1 1", res.OK, res.Shed, res.Failed)
	}
	if res.LatMS[3] != missedMS || res.LatMS[4] != missedMS {
		t.Error("a refused or failed request must miss any latency limit")
	}
	if n := len(res.classLat(true)); n != 5 {
		t.Errorf("variance-class latencies = %d, want 5", n)
	}
}

func TestClosedLoopWaitsForReplies(t *testing.T) {
	reqs := []request{{Lo: 0}, {Lo: 1}, {Lo: 2}}
	var mu sync.Mutex
	inFlight, maxInFlight := 0, 0
	do := func(context.Context, request) outcome {
		mu.Lock()
		inFlight++
		maxInFlight = max(maxInFlight, inFlight)
		mu.Unlock()
		time.Sleep(2 * time.Millisecond)
		mu.Lock()
		inFlight--
		mu.Unlock()
		return reqOK
	}
	res := runClosedLoop(context.Background(), reqs, 2, 100*time.Millisecond, do)
	if maxInFlight > 2 {
		t.Errorf("%d requests in flight with 2 clients", maxInFlight)
	}
	// Two clients at 2 ms a request complete at most 1000 a second.
	if rate := res.windowRate(20 * time.Millisecond); rate < 300 || rate > 1100 {
		t.Errorf("window rate = %.0f req/s, want near 1000", rate)
	}
	if len(res.DoneAt) != res.Sent || res.OK != res.Sent {
		t.Errorf("sent %d ok %d done %d", res.Sent, res.OK, len(res.DoneAt))
	}
}

func TestCycleTailTakesMedianOverCycles(t *testing.T) {
	var r loadResult
	for cyc := 0; cyc < 3; cyc++ {
		for i := 0; i < 100; i++ {
			lat := 1.0
			if cyc == 1 && i >= 90 { // one disturbed cycle
				lat = 500
			} else if i == 99 {
				lat = 9
			}
			r.Reqs = append(r.Reqs, request{Due: time.Duration(cyc)*time.Second + time.Duration(i)*time.Millisecond})
			r.LatMS = append(r.LatMS, lat)
		}
	}
	if got := r.cycleTail(time.Second, 99); got != 1 {
		t.Errorf("cycleTail = %v, want the typical cycle's p99 (1)", got)
	}
	if got := r.cycleTail(time.Second, 100); got != 9 {
		t.Errorf("cycleTail p100 = %v, want the typical cycle's maximum (9)", got)
	}
	if got := r.cycleBest(time.Second, 100); got != 9 {
		t.Errorf("cycleBest p100 = %v, want the quietest cycle's maximum (9)", got)
	}
	// A second phase appended behind the first keeps its cycles apart.
	r.Elapsed = 3 * time.Second
	r.extend(loadResult{Reqs: []request{{Due: 10 * time.Millisecond}}, LatMS: []float64{0.5}, Sent: 1, OK: 1}, time.Second)
	if tails := r.cycleTails(time.Second, 100); len(tails) != 4 || r.cycleBest(time.Second, 100) != 0.5 || r.Elapsed != 4*time.Second {
		t.Errorf("after extend: %d cycles, best %v, elapsed %v", len(tails), r.cycleBest(time.Second, 100), r.Elapsed)
	}
}
