package mpi

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestRecvTimeoutDiagnosesLostMessage(t *testing.T) {
	w := NewWorld(2)
	w.SetRecvTimeout(50 * time.Millisecond)
	start := time.Now()
	errs := w.Run(func(c *Comm) error {
		if c.Rank() == 1 {
			_, err := c.Recv(0, 9) // rank 0 never sends
			return err
		}
		return nil
	})
	if errs[1] == nil {
		t.Fatal("recv from a silent peer must time out")
	}
	if !strings.Contains(errs[1].Error(), "timed out") {
		t.Fatalf("timeout error should say so: %v", errs[1])
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("timeout took %v", elapsed)
	}
}

func TestRankPanicPoisonsAndWorldHeals(t *testing.T) {
	w := NewWorld(4)
	start := time.Now()
	errs := w.Run(func(c *Comm) error {
		if c.Rank() == 2 {
			panic("injected rank failure")
		}
		// Every other rank blocks on the dead rank; poisoning must unblock
		// them with an error instead of deadlocking.
		_, err := c.Recv(2, 1)
		return err
	})
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("rank failure took %v to resolve", elapsed)
	}
	if errs[2] == nil || !strings.Contains(errs[2].Error(), "rank 2 panicked") {
		t.Fatalf("dead rank error should name it: %v", errs[2])
	}
	for _, r := range []int{0, 1, 3} {
		if errs[r] == nil {
			t.Fatalf("rank %d survived a poisoned world without an error", r)
		}
	}
	if w.Err() == nil {
		t.Fatal("world should remember the failure until the next Run")
	}

	// The next Run heals the world: mailboxes drained, poison cleared.
	errs = w.Run(func(c *Comm) error {
		sum, err := c.AllreduceSum(3, float64(c.Rank()+1))
		if err != nil {
			return err
		}
		if sum != 10 {
			return fmt.Errorf("allreduce after heal got %v", sum)
		}
		return nil
	})
	for r, err := range errs {
		if err != nil {
			t.Fatalf("healed world rank %d: %v", r, err)
		}
	}
}

func TestCleanErrorAlsoPoisons(t *testing.T) {
	w := NewWorld(2)
	errs := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			return fmt.Errorf("rank 0 gives up")
		}
		_, err := c.Recv(0, 1)
		return err
	})
	if errs[0] == nil || errs[1] == nil {
		t.Fatalf("both ranks must report: %v", errs)
	}
	if !strings.Contains(errs[1].Error(), "aborted") {
		t.Fatalf("blocked rank should see the abort: %v", errs[1])
	}
}
