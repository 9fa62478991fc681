package mpi

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/tlr"
)

// TestRankDeathFromPanic checks that a rank panic poisons the world with an
// error every rank can unwrap to a RankDeath naming the victim.
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
		if rd.Rank != 2 {
			t.Fatalf("rank %d: RankDeath = %+v, want rank 2", r, rd)
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

// potrfID returns the ID of panel k's POTRF in d's generate+factor DAG.
func potrfID(d *DistTLR, k int) int {
	for _, t := range d.graph.Tasks() {
		if i, _ := d.TileOf(t.Accesses[0].Handle); t.Name == "potrf" && i == k {
			return t.ID
		}
	}
	panic(fmt.Sprintf("no POTRF for panel %d", k))
}

// TestElasticShrinkResumeTLRCholesky is the end-to-end mpi-layer drill: a
// 6-rank distributed TLR Cholesky loses one rank at panel 2 — before the
// first task it owns from that panel's POTRF on — the
// run reports its death, and the survivors start over as a fresh 5-rank World
// on SquarestGrid(5) with fresh shards, as core's recovery does. Its factor
// tiles, log-determinant and solve must be bitwise-identical to an unfaulted
// 6-rank run — including when the dead rank is 0, the collectives' root — and
// every mailbox must end drained. A second factorization on the 5-rank World
// (the enclosing fit's next optimizer iteration) must match too.
func TestElasticShrinkResumeTLRCholesky(t *testing.T) {
	const (
		n      = 90
		nb     = 16
		tol    = 1e-7
		nugget = 1e-9
		ranks  = 6
	)
	k, pts := distProblem(n)
	comp := tlr.CompressRSVD
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
			// Run 1: the victim dies at panel 2.
			var fired atomic.Bool
			errs := RunWorld(ranks, func(c *Comm) error {
				d := NewDistTLR(grid, pts, geom.Euclidean, nb, tol, comp)
				at := potrfID(d, 2)
				d.Inject = func(graphLen, taskID int) {
					if c.Rank() == victim && taskID >= at && !fired.Swap(true) {
						panic(fmt.Errorf("chaos kill at task %d", taskID))
					}
				}
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

			// Run 2: the shrink — a fresh World one rank smaller — generates,
			// factors and solves; every result is the unfaulted run's.
			w := NewWorld(ranks - 1)
			small := SquarestGrid(ranks - 1)
			shards := make([]*DistTLR, ranks-1)
			errs = w.Run(func(c *Comm) error {
				d := NewDistTLR(small, pts, geom.Euclidean, nb, tol, comp)
				shards[c.Rank()] = d
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
				// every owned tile must be the unfaulted factor's, word for word
				for i := 0; i < d.MT; i++ {
					for j := 0; j <= i; j++ {
						if d.Owner(i, j) != c.Rank() {
							continue
						}
						if got, want := d.EncodeTile(i, j), refShards[grid.Owner(i, j)].EncodeTile(i, j); !slices.Equal(got, want) {
							return fmt.Errorf("tile (%d,%d) differs from the unfaulted factor after recovery", i, j)
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

			// Run 3: a second factorization on the same 5-rank World and shards
			// (the next optimizer iteration) must still match the unfaulted run.
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
