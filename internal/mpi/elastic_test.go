package mpi

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/tlr"
)

// TestRankDeathFromPanic checks that a rank panic poisons the world with an
// error every rank can unwrap to a RankDeath naming the victim and the
// membership epoch the failure happened in.
func TestRankDeathFromPanic(t *testing.T) {
	w := NewWorld(4)
	errs := w.Run(func(c *Comm) error {
		if c.Rank() == 2 {
			panic(fmt.Errorf("injected failure"))
		}
		_, err := c.Recv(2, 7)
		return err
	})
	for r, err := range errs {
		if r == 2 {
			continue
		}
		if err == nil {
			t.Fatalf("rank %d: expected an error from the poisoned world", r)
		}
		var rd *RankDeath
		if !errors.As(err, &rd) {
			t.Fatalf("rank %d: error %v does not wrap RankDeath", r, err)
		}
		if rd.Rank != 2 || rd.Epoch != 0 {
			t.Fatalf("rank %d: RankDeath = %+v, want rank 2 epoch 0", r, rd)
		}
	}
	var rd *RankDeath
	if !errors.As(errs[2], &rd) || rd.Rank != 2 {
		t.Fatalf("victim error %v does not wrap its own RankDeath", errs[2])
	}
}

// TestRankDeathFromTimeout checks that a receive timeout diagnoses the silent
// source as dead: the error wraps a RankDeath naming the peer that went
// quiet, which is what elastic recovery acts on when a rank dies without
// panicking.
func TestRankDeathFromTimeout(t *testing.T) {
	w := NewWorld(2)
	w.SetRecvTimeout(20 * time.Millisecond)
	errs := w.Run(func(c *Comm) error {
		if c.Rank() != 0 {
			return nil // rank 1 exits without ever sending
		}
		_, err := c.Recv(1, 3)
		return err
	})
	if errs[0] == nil {
		t.Fatal("rank 0: expected a timeout error")
	}
	var rd *RankDeath
	if !errors.As(errs[0], &rd) {
		t.Fatalf("timeout error %v does not wrap RankDeath", errs[0])
	}
	if rd.Rank != 1 {
		t.Fatalf("RankDeath names rank %d, want the silent source 1", rd.Rank)
	}
}

// TestMarkDead exercises the membership bookkeeping: liveness views, epoch
// bumps and idempotent MarkDead.
func TestMarkDead(t *testing.T) {
	w := NewWorld(3)
	if got := w.AliveCount(); got != 3 {
		t.Fatalf("AliveCount = %d, want 3", got)
	}
	epoch := w.MarkDead(1)
	if epoch != 1 {
		t.Fatalf("MarkDead epoch = %d, want 1", epoch)
	}
	if w.MarkDead(1) != 1 {
		t.Fatal("re-marking a dead rank must not advance the epoch")
	}
	if w.Alive(1) || !w.Alive(0) || !w.Alive(2) {
		t.Fatalf("liveness after MarkDead(1): %v %v %v", w.Alive(0), w.Alive(1), w.Alive(2))
	}
	if got := w.AliveRanks(); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("AliveRanks = %v, want [0 2]", got)
	}
	if got := w.LowestAlive(); got != 0 {
		t.Fatalf("LowestAlive = %d, want 0", got)
	}
}

// TestShrinkCollectivesAfterRootDeath kills rank 0 and checks that the
// surviving ranks' collectives re-root at the lowest live rank and that the
// membership agreement reaches the correct view — the root-migration half of
// elastic recovery.
func TestShrinkCollectivesAfterRootDeath(t *testing.T) {
	w := NewWorld(4)
	w.MarkDead(0)
	errs := w.Run(func(c *Comm) error {
		alive, epoch, err := c.AgreeAlive()
		if err != nil {
			return err
		}
		if epoch != 1 {
			return fmt.Errorf("AgreeAlive epoch = %d, want 1", epoch)
		}
		want := []bool{false, true, true, true}
		for r := range want {
			if alive[r] != want[r] {
				return fmt.Errorf("agreed alive[%d] = %v, want %v", r, alive[r], want[r])
			}
		}
		sum, err := c.AllreduceSum(tagOf(kindSum, 0, 0), float64(c.Rank()))
		if err != nil {
			return err
		}
		if sum != 6 { // 1 + 2 + 3
			return fmt.Errorf("allreduce over survivors = %g, want 6", sum)
		}
		return nil
	})
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	if errs[0] != nil {
		t.Fatal("dead rank must not run")
	}
}

// TestStaleEpochMessageDiscarded plants a previous-epoch message directly in
// a mailbox and checks the receiver skips it in favor of the current-epoch
// payload — the tag-versioning guard against stragglers from the aborted
// protocol.
func TestStaleEpochMessageDiscarded(t *testing.T) {
	w := NewWorld(3)
	w.MarkDead(2) // epoch 0 -> 1
	mb := w.boxes[1]
	mb.mu.Lock()
	mb.pending = append(mb.pending, message{src: 0, tag: 7, epoch: 0, data: []float64{99}})
	mb.mu.Unlock()
	errs := w.Run(func(c *Comm) error {
		switch c.Rank() {
		case 0:
			c.Send(1, 7, []float64{42})
		case 1:
			data, err := c.Recv(0, 7)
			if err != nil {
				return err
			}
			if len(data) != 1 || data[0] != 42 {
				return fmt.Errorf("received %v, want the epoch-1 payload [42]", data)
			}
		}
		return nil
	})
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

// TestRecvFromDeadRankFailsFast checks that receiving from a dead rank fails
// immediately with a RankDeath instead of blocking until timeout.
func TestRecvFromDeadRankFailsFast(t *testing.T) {
	w := NewWorld(3)
	w.MarkDead(1)
	start := time.Now()
	errs := w.Run(func(c *Comm) error {
		if c.Rank() != 0 {
			return nil
		}
		_, err := c.Recv(1, 5)
		return err
	})
	if errs[0] == nil {
		t.Fatal("recv from a dead rank must fail")
	}
	var rd *RankDeath
	if !errors.As(errs[0], &rd) || rd.Rank != 1 || rd.Epoch != 1 {
		t.Fatalf("error %v does not wrap RankDeath{1, 1}", errs[0])
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("dead-rank recv took %v, want a fast failure", elapsed)
	}
}

// TestKillDuringAllreduce kills a rank that never joins a reduction and
// checks the survivors observe the death, shrink, and complete the same
// reduction on the next run — the collective-resumption half of recovery.
func TestKillDuringAllreduce(t *testing.T) {
	w := NewWorld(4)
	errs := w.Run(func(c *Comm) error {
		if c.Rank() == 1 {
			panic(fmt.Errorf("killed before joining the allreduce"))
		}
		_, err := c.AllreduceSum(tagOf(kindSum, 2, 0), 1)
		return err
	})
	dead := -1
	for _, err := range errs {
		var rd *RankDeath
		if errors.As(err, &rd) {
			dead = rd.Rank
			break
		}
	}
	if dead != 1 {
		t.Fatalf("diagnosed dead rank %d, want 1", dead)
	}
	w.MarkDead(dead)
	errs = w.Run(func(c *Comm) error {
		sum, err := c.AllreduceSum(tagOf(kindSum, 2, 0), 1)
		if err != nil {
			return err
		}
		if sum != 3 {
			return fmt.Errorf("post-shrink allreduce = %g, want 3", sum)
		}
		return nil
	})
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

// TestOwnerMapReassign checks the deterministic slot remap: survivors keep
// their slots, dead slots deal round-robin over ascending survivors, and the
// result is a pure function of the membership view.
func TestOwnerMapReassign(t *testing.T) {
	grid := Grid{P: 2, Q: 3}
	m := NewOwnerMap(grid)
	for i := 0; i < 4; i++ {
		for j := 0; j <= i; j++ {
			if m.Owner(i, j) != grid.Owner(i, j) {
				t.Fatalf("identity OwnerMap disagrees with Grid at (%d,%d)", i, j)
			}
		}
	}
	alive := []bool{true, true, true, false, true, true}
	moved := m.Reassign(alive)
	if len(moved) != 1 || moved[0] != 3 {
		t.Fatalf("moved = %v, want [3]", moved)
	}
	// slot 3 deals to survivors[3 % 5]: survivors = [0 1 2 4 5] -> rank 4
	m2 := NewOwnerMap(grid)
	m2.Reassign(alive)
	for i := 0; i < 6; i++ {
		for j := 0; j <= i; j++ {
			if m.Owner(i, j) != m2.Owner(i, j) {
				t.Fatalf("Reassign is not deterministic at (%d,%d)", i, j)
			}
			if got := m.Owner(i, j); got == 3 {
				t.Fatalf("tile (%d,%d) still owned by the dead rank", i, j)
			}
			if slot := grid.Owner(i, j); slot != 3 && m.Owner(i, j) != slot {
				t.Fatalf("survivor slot %d moved to %d", slot, m.Owner(i, j))
			}
			if slot := grid.Owner(i, j); slot == 3 && m.Owner(i, j) != 4 {
				t.Fatalf("dead slot dealt to %d, want 4", m.Owner(i, j))
			}
		}
	}
	if len(m.Reassign(alive)) != 0 {
		t.Fatal("re-applying the same membership must move nothing")
	}
}

// TestElasticShrinkResumeTLRCholesky is the end-to-end mpi-layer drill: a
// 6-rank distributed TLR Cholesky loses one rank at the start of panel 2,
// the survivors agree on the death, remap ownership, regenerate their shards
// — now including the dead rank's tiles — from the deterministic generators,
// and factor again. The factor, log-determinant, and solve must be
// bitwise-identical to an unfaulted 6-rank run — including when the dead rank
// is 0 (root migration) — and every mailbox must end drained. A follow-up
// factorization on the shrunken world checks post-recovery reuse (the
// enclosing fit's next optimizer iteration).
func TestElasticShrinkResumeTLRCholesky(t *testing.T) {
	const (
		n      = 90
		nb     = 16
		tol    = 1e-7
		nugget = 1e-9
		ranks  = 6
	)
	k, pts := distProblem(n)
	comp := tlr.RSVDCompressor{Seed: 42, Oversample: 8}
	grid := Grid{P: 2, Q: 3}
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = math.Sin(float64(i))
	}

	// Unfaulted reference: factor, logdet, and solve on a healthy world.
	refShards := make([]*DistTLR, ranks)
	var refLD float64
	refSol := make([]float64, n)
	errs := RunWorld(ranks, func(c *Comm) error {
		d := NewDistTLR(grid, pts, geom.Euclidean, nb, tol, comp)
		refShards[c.Rank()] = d
		if err := d.GenCholesky(c, k, nugget); err != nil {
			return err
		}
		ld, err := d.LogDet(c)
		if err != nil {
			return err
		}
		y := append([]float64(nil), rhs...)
		if err := solveVec(d, c, y); err != nil {
			return err
		}
		if c.Rank() == 0 {
			refLD = ld
			copy(refSol, y)
		}
		return nil
	})
	for r, err := range errs {
		if err != nil {
			t.Fatalf("reference rank %d: %v", r, err)
		}
	}

	for _, victim := range []int{3, 0} {
		t.Run(fmt.Sprintf("victim=%d", victim), func(t *testing.T) {
			w := NewWorld(ranks)
			shards := make([]*DistTLR, ranks)
			var fired atomic.Bool

			// Run 1: the victim dies at the start of panel 2.
			errs := w.Run(func(c *Comm) error {
				d := NewDistTLR(grid, pts, geom.Euclidean, nb, tol, comp)
				d.PanelHook = func(rank, panel int) {
					if rank == victim && panel == 2 && !fired.Swap(true) {
						panic(fmt.Errorf("chaos kill at panel %d", panel))
					}
				}
				shards[c.Rank()] = d
				return d.GenCholesky(c, k, nugget)
			})
			dead := -1
			for _, err := range errs {
				var rd *RankDeath
				if errors.As(err, &rd) {
					dead = rd.Rank
					break
				}
			}
			if dead != victim {
				t.Fatalf("diagnosed dead rank %d, want %d", dead, victim)
			}
			w.MarkDead(dead)

			// Run 2: shrink, regenerate, refactor, and verify bitwise equality.
			errs = w.Run(func(c *Comm) error {
				d := shards[c.Rank()]
				alive, _, err := c.AgreeAlive()
				if err != nil {
					return err
				}
				if alive[victim] {
					return fmt.Errorf("membership agreement still lists rank %d alive", victim)
				}
				d.ApplyMembership(alive)
				if err := d.GenCholesky(c, k, nugget); err != nil {
					return err
				}
				ld, err := d.LogDet(c)
				if err != nil {
					return err
				}
				if ld != refLD {
					return fmt.Errorf("recovered logdet %v != unfaulted %v", ld, refLD)
				}
				y := append([]float64(nil), rhs...)
				if err := solveVec(d, c, y); err != nil {
					return err
				}
				for i := range y {
					if y[i] != refSol[i] {
						return fmt.Errorf("recovered solve differs at %d: %v != %v", i, y[i], refSol[i])
					}
				}
				// every owned tile must match the unfaulted factor bitwise
				for i := 0; i < d.MT; i++ {
					for j := 0; j <= i; j++ {
						if d.Owner(i, j) != c.Rank() {
							continue
						}
						ref := refShards[grid.Owner(i, j)]
						if i == j {
							got, want := d.Diag(i), ref.Diag(i)
							for a := 0; a < got.Rows; a++ {
								for b := 0; b <= a; b++ {
									if got.At(a, b) != want.At(a, b) {
										return fmt.Errorf("diag tile %d (%d,%d): %v != %v", i, a, b, got.At(a, b), want.At(a, b))
									}
								}
							}
						} else if diff := maxAbsDiff(d.Off(i, j).Dense(), ref.Off(i, j).Dense()); diff != 0 {
							return fmt.Errorf("off tile (%d,%d) deviates by %g after recovery", i, j, diff)
						}
					}
				}
				return nil
			})
			for r, err := range errs {
				if err != nil {
					t.Fatalf("recovery rank %d: %v", r, err)
				}
			}
			for r, mb := range w.boxes {
				if len(mb.pending) != 0 {
					t.Fatalf("rank %d: %d messages left in the mailbox after recovery", r, len(mb.pending))
				}
			}

			// Run 3: a fresh factorization on the shrunken world (the next
			// optimizer iteration) must still match the unfaulted run.
			errs = w.Run(func(c *Comm) error {
				d := shards[c.Rank()]
				if err := d.GenCholesky(c, k, nugget); err != nil {
					return err
				}
				ld, err := d.LogDet(c)
				if err != nil {
					return err
				}
				if ld != refLD {
					return fmt.Errorf("post-recovery refactor logdet %v != unfaulted %v", ld, refLD)
				}
				return nil
			})
			for r, err := range errs {
				if err != nil {
					t.Fatalf("post-recovery rank %d: %v", r, err)
				}
			}
		})
	}
}
