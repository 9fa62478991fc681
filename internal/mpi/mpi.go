// Package mpi provides a rank-based message-passing layer over Go channels —
// a miniature MPI used to run genuinely distributed-memory algorithms inside
// one process. Ranks share no data structures: every tile that crosses a
// rank boundary is copied through a mailbox, exactly as an MPI program would
// send it over the wire.
//
// The distributed TLR Cholesky factorization in this package (dist_tlr.go;
// with every tile forced dense it is the dense tiled algorithm) is the
// real-execution counterpart of the cluster package's communication model:
// the same DAG (tlr.BuildGenCholeskyGraph) on the same 2D block-cyclic
// ownership, with the same transfers inferred by runtime.Graph.Place,
// executed rather than priced. Per-rank traffic counters
// (CommStats) record the bytes each rank actually sends and receives so the
// communication model can be validated against real message volumes
// (internal/cluster's distcomm tests).
package mpi

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Process-wide communication counters (all worlds). Self-deliveries are not
// counted, matching CommStats.
var (
	cntMsgsSent  = obs.GetCounter("mpi.msgs.sent")
	cntBytesSent = obs.GetCounter("mpi.bytes.sent")
)

// message is one tagged payload in flight.
type message struct {
	src, tag int
	data     []float64
}

// World is a communicator group of size ranks with reliable, ordered,
// tag-matched delivery.
type World struct {
	size  int
	boxes []*mailbox
	stats []commCounters

	// recvTimeout is configured before Run (never concurrently with it);
	// see SetRecvTimeout.
	recvTimeout time.Duration

	// Rank-failure poisoning: the first rank to fail (error return or panic
	// inside Run) records its error and wakes every blocked Recv, which then
	// returns the failure instead of waiting forever for a message its dead
	// peer will never send.
	failMu   sync.Mutex
	failErr  error
	poisoned atomic.Bool
}

// RankDeath identifies which rank a distributed run lost. Every poison error
// caused by a rank failure — a panic inside Run, or a receive timeout
// diagnosing a silent peer — wraps one, so callers can recover it with
// errors.As and decide to go on with a smaller World instead of giving up.
type RankDeath struct {
	// Rank is the rank diagnosed dead.
	Rank int
}

func (d *RankDeath) Error() string { return fmt.Sprintf("mpi: rank %d died", d.Rank) }

// SetRecvTimeout bounds every Recv: a rank blocked longer than d returns a
// timeout error instead of deadlocking. Zero (the default) waits forever.
// Call before Run.
func (w *World) SetRecvTimeout(d time.Duration) { w.recvTimeout = d }

// Err returns the error that poisoned the world (nil while healthy).
func (w *World) Err() error {
	w.failMu.Lock()
	defer w.failMu.Unlock()
	return w.failErr
}

// poison records the first failure and wakes every blocked receiver. Both
// clean error returns and panics poison: either way the rank stops sending,
// and any peer blocked on it must unblock with a diagnosis.
func (w *World) poison(err error) {
	w.failMu.Lock()
	if w.failErr == nil {
		w.failErr = err
	}
	w.failMu.Unlock()
	w.poisoned.Store(true)
	for _, mb := range w.boxes {
		mb.mu.Lock()
		mb.cond.Broadcast()
		mb.mu.Unlock()
	}
}

// mailbox buffers incoming messages for one rank.
type mailbox struct {
	mu      sync.Mutex
	cond    *sync.Cond
	pending []message
}

// commCounters accumulates one rank's cross-rank traffic.
type commCounters struct {
	bytesSent, bytesRecv atomic.Int64
	msgsSent, msgsRecv   atomic.Int64
}

// CommStats is a snapshot of one rank's cross-rank traffic. Self-deliveries
// (src == dst) never touch the wire in a real MPI and are not counted.
type CommStats struct {
	BytesSent, BytesRecv int64
	MsgsSent, MsgsRecv   int64
}

// Sub returns the traffic accumulated between snapshot prev and s — the
// idiom for measuring one phase (e.g. factorization only).
func (s CommStats) Sub(prev CommStats) CommStats {
	return CommStats{
		BytesSent: s.BytesSent - prev.BytesSent,
		BytesRecv: s.BytesRecv - prev.BytesRecv,
		MsgsSent:  s.MsgsSent - prev.MsgsSent,
		MsgsRecv:  s.MsgsRecv - prev.MsgsRecv,
	}
}

// NewWorld creates a communicator group with the given number of ranks.
func NewWorld(size int) *World {
	if size <= 0 {
		panic("mpi: world size must be positive")
	}
	w := &World{size: size, boxes: make([]*mailbox, size), stats: make([]commCounters, size)}
	for i := range w.boxes {
		mb := &mailbox{}
		mb.cond = sync.NewCond(&mb.mu)
		w.boxes[i] = mb
	}
	return w
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.size }

// Stats returns a snapshot of rank's cumulative cross-rank traffic.
func (w *World) Stats(rank int) CommStats {
	c := &w.stats[rank]
	return CommStats{
		BytesSent: c.bytesSent.Load(), BytesRecv: c.bytesRecv.Load(),
		MsgsSent: c.msgsSent.Load(), MsgsRecv: c.msgsRecv.Load(),
	}
}

// Comm is one rank's endpoint.
type Comm struct {
	world *World
	rank  int
}

// Rank returns this endpoint's rank.
func (c *Comm) Rank() int { return c.rank }

// Size returns the world size.
func (c *Comm) Size() int { return c.world.size }

// Stats returns a snapshot of this rank's cumulative cross-rank traffic.
func (c *Comm) Stats() CommStats { return c.world.Stats(c.rank) }

// At returns the endpoint for a rank (each rank goroutine should use only
// its own endpoint; At exists for test setup).
func (w *World) At(rank int) *Comm {
	if rank < 0 || rank >= w.size {
		panic(fmt.Sprintf("mpi: rank %d out of range [0,%d)", rank, w.size))
	}
	return &Comm{world: w, rank: rank}
}

// Send delivers a copy of data to dst under tag. Sends never block (the
// mailbox is unbounded), so a program whose ranks only ever wait for work of
// a lower task ID is deadlock-free.
func (c *Comm) Send(dst, tag int, data []float64) {
	if dst == c.rank {
		// self-sends are legal and common in broadcast loops
		c.deliver(message{src: c.rank, tag: tag, data: append([]float64(nil), data...)})
		return
	}
	st := &c.world.stats[c.rank]
	st.bytesSent.Add(int64(8 * len(data)))
	st.msgsSent.Add(1)
	cntMsgsSent.Inc()
	cntBytesSent.Add(int64(8 * len(data)))
	c.world.boxes[dst].put(message{src: c.rank, tag: tag, data: append([]float64(nil), data...)})
}

func (c *Comm) deliver(m message) { c.world.boxes[c.rank].put(m) }

func (mb *mailbox) put(m message) {
	mb.mu.Lock()
	mb.pending = append(mb.pending, m)
	mb.cond.Broadcast()
	mb.mu.Unlock()
}

// Recv blocks until a message from src with the given tag arrives and
// returns its payload. It fails instead of blocking forever when the world
// is poisoned by a rank failure or when the world's receive deadline passes
// — a timeout is diagnosed as the death of the silent source and wraps a
// RankDeath, so recovery layers can go on without it instead of merely
// reporting a hang. Pending messages are always drained first, even on a
// poisoned world, so a rank whose inputs have already arrived keeps working
// until it needs one that never will.
func (c *Comm) Recv(src, tag int) ([]float64, error) {
	mb := c.world.boxes[c.rank]
	var deadline time.Time
	if d := c.world.recvTimeout; d > 0 {
		deadline = time.Now().Add(d)
		t := time.AfterFunc(d, func() {
			mb.mu.Lock()
			mb.cond.Broadcast()
			mb.mu.Unlock()
		})
		defer t.Stop()
	}
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for {
		for i, m := range mb.pending {
			if m.src == src && m.tag == tag {
				mb.pending = append(mb.pending[:i], mb.pending[i+1:]...)
				if src != c.rank {
					st := &c.world.stats[c.rank]
					st.bytesRecv.Add(int64(8 * len(m.data)))
					st.msgsRecv.Add(1)
				}
				return m.data, nil
			}
		}
		if c.world.poisoned.Load() {
			return nil, fmt.Errorf("mpi: rank %d: recv(src %d, tag %d) aborted: %w", c.rank, src, tag, c.world.Err())
		}
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			return nil, fmt.Errorf("mpi: rank %d: recv(src %d, tag %d) timed out after %v: %w",
				c.rank, src, tag, c.world.recvTimeout, &RankDeath{Rank: src})
		}
		mb.cond.Wait()
	}
}

// AllreduceSum sums one value across the ranks (gather to rank 0, then
// broadcast). It uses tag and tag+1; callers must leave both free.
func (c *Comm) AllreduceSum(tag int, v float64) (float64, error) {
	out, err := c.allreduce(tag, []float64{v}, func(acc, got []float64) {
		acc[0] += got[0]
	})
	if err != nil {
		return 0, err
	}
	return out[0], nil
}

// AllreduceSumVec sums one vector elementwise across the ranks, with the
// same tag discipline as AllreduceSum. When each element has exactly one
// non-zero contributor (per-tile partial results) the elementwise sum is
// exact, so reducing a vector and summing it in a fixed element order
// afterwards yields a result independent of how the tiles are distributed
// — the property that keeps log-determinants bitwise stable across grid
// shapes and world sizes.
func (c *Comm) AllreduceSumVec(tag int, v []float64) ([]float64, error) {
	return c.allreduce(tag, append([]float64(nil), v...), func(acc, got []float64) {
		for i := range acc {
			acc[i] += got[i]
		}
	})
}

// allreduce gathers every rank's contribution at rank 0, combines in
// ascending rank order, and broadcasts the result back. acc is combined in
// place.
func (c *Comm) allreduce(tag int, acc []float64, combine func(acc, got []float64)) ([]float64, error) {
	if c.rank != 0 {
		c.Send(0, tag, acc)
		return c.Recv(0, tag+1)
	}
	for r := 1; r < c.Size(); r++ {
		got, err := c.Recv(r, tag)
		if err != nil {
			return nil, err
		}
		combine(acc, got)
	}
	for r := 1; r < c.Size(); r++ {
		c.Send(r, tag+1, acc)
	}
	return acc, nil
}

// Run runs fn once per rank concurrently and waits for completion; per-rank
// errors are collected by rank index. The World persists across Run calls,
// so algorithms that drain their mailboxes completely (the Cholesky and
// solve routines in this package do) can run repeatedly on one World — the
// reuse pattern core's distributed likelihood evaluator depends on.
//
// A rank that panics is recovered here and reported as its error ("rank N
// panicked: ..."); any rank failure — panic or clean error — poisons the
// world so peers blocked in Recv unblock with a diagnosis instead of
// deadlocking. A previously poisoned world heals at the next Run: the poison
// clears and stale in-flight messages from the aborted protocol are dropped,
// restoring the drained-mailbox reuse contract.
func (w *World) Run(fn func(c *Comm) error) []error {
	if w.poisoned.Load() {
		for _, mb := range w.boxes {
			mb.mu.Lock()
			mb.pending = nil
			mb.mu.Unlock()
		}
		w.failMu.Lock()
		w.failErr = nil
		w.failMu.Unlock()
		w.poisoned.Store(false)
	}
	errs := make([]error, w.size)
	var wg sync.WaitGroup
	for r := 0; r < w.size; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if rec := recover(); rec != nil {
					// A panic is the death of this rank: the poison error
					// carries the rank's identity, so survivors (whose Recvs
					// all fail with it) can tell which peer was lost.
					death := &RankDeath{Rank: r}
					var err error
					if e, ok := rec.(error); ok {
						err = fmt.Errorf("mpi: rank %d panicked: %w (%w)", r, e, death)
					} else {
						err = fmt.Errorf("mpi: rank %d panicked: %v (%w)", r, rec, death)
					}
					errs[r] = err
					w.poison(err)
				}
			}()
			if err := fn(w.At(r)); err != nil {
				errs[r] = err
				w.poison(fmt.Errorf("mpi: rank %d failed: %w", r, err))
			}
		}()
	}
	wg.Wait()
	return errs
}

// RunWorld runs fn once per rank of a fresh World and waits for completion.
func RunWorld(size int, fn func(c *Comm) error) []error {
	return NewWorld(size).Run(fn)
}
