package mpi

import (
	"fmt"

	"repro/internal/obs"
)

// cntRankLost counts the ranks MarkDead declared dead.
var cntRankLost = obs.GetCounter("mpi.rank.lost")

// RankDeath identifies which rank a distributed run lost and at which
// membership epoch. Every poison error caused by a rank failure — a panic
// inside Run, or a receive timeout diagnosing a silent peer — wraps one, so
// callers can recover it with errors.As and decide to shrink the world to
// the survivors instead of giving up.
type RankDeath struct {
	// Rank is the rank diagnosed dead.
	Rank int
	// Epoch is the membership epoch the failure happened in. Stale
	// diagnoses from before an already-completed shrink carry an old epoch
	// and must be ignored.
	Epoch int64
}

func (d *RankDeath) Error() string {
	return fmt.Sprintf("mpi: rank %d died (membership epoch %d)", d.Rank, d.Epoch)
}

// Alive reports whether rank is a live member of the current epoch.
func (w *World) Alive(rank int) bool { return w.alive[rank].Load() }

// AliveCount returns the number of live ranks.
func (w *World) AliveCount() int {
	n := 0
	for r := 0; r < w.size; r++ {
		if w.alive[r].Load() {
			n++
		}
	}
	return n
}

// AliveRanks returns the live ranks in ascending order.
func (w *World) AliveRanks() []int {
	out := make([]int, 0, w.size)
	for r := 0; r < w.size; r++ {
		if w.alive[r].Load() {
			out = append(out, r)
		}
	}
	return out
}

// LowestAlive returns the lowest live rank — the root every collective
// gathers at (rank 0 until rank 0 dies), and the replica every
// rank-replicated result is read back from.
func (w *World) LowestAlive() int {
	for r := 0; r < w.size; r++ {
		if w.alive[r].Load() {
			return r
		}
	}
	panic("mpi: no live ranks")
}

// Epoch returns the current membership epoch (0 until the first failure).
func (w *World) Epoch() int64 { return w.epoch.Load() }

// MarkDead removes rank from the membership: the epoch advances, every
// mailbox is drained (in-flight messages from the aborted protocol are
// stale by definition — their epoch stamp no longer matches), and the
// poison clears so the survivors' next Run starts clean. Subsequent Runs
// spawn no goroutine for the dead rank, sends to it vanish, and receives
// from it fail immediately with a RankDeath diagnosis. Returns the new
// epoch. Marking an already-dead rank is a no-op.
func (w *World) MarkDead(rank int) int64 {
	if rank < 0 || rank >= w.size {
		panic(fmt.Sprintf("mpi: MarkDead rank %d out of range [0,%d)", rank, w.size))
	}
	if !w.alive[rank].Swap(false) {
		return w.epoch.Load()
	}
	cntRankLost.Inc()
	epoch := w.epoch.Add(1)
	for _, mb := range w.boxes {
		mb.mu.Lock()
		mb.pending = nil
		mb.mu.Unlock()
	}
	w.failMu.Lock()
	w.failErr = nil
	w.failMu.Unlock()
	w.poisoned.Store(false)
	return epoch
}

// AliveRanks returns the live ranks of this endpoint's world, ascending.
func (c *Comm) AliveRanks() []int { return c.world.AliveRanks() }

// AgreeAlive is the epoch-tagged membership allreduce: every surviving rank
// contributes its local liveness view (one 0/1 entry per rank) and receives
// the agreed intersection — a rank is agreed alive only when every
// participant sees it alive — plus the epoch the agreement was reached at.
// The reduction tag carries the epoch, so a straggler re-entering with a
// stale view cannot satisfy a current-epoch agreement. Call it as the first
// collective of a post-shrink recovery run: it doubles as the barrier that
// ensures every survivor has entered the new epoch before any shard state
// is rebuilt.
func (c *Comm) AgreeAlive() ([]bool, int64, error) {
	epoch := c.world.Epoch()
	voters := c.world.AliveCount()
	vec := make([]float64, c.Size())
	for r := range vec {
		if c.world.Alive(r) {
			vec[r] = 1
		}
	}
	sum, err := c.AllreduceSumVec(tagOf(kindMember, int(epoch&0x7fffff), 0), vec)
	if err != nil {
		return nil, 0, err
	}
	alive := make([]bool, c.Size())
	for r := range alive {
		alive[r] = sum[r] == float64(voters)
	}
	return alive, epoch, nil
}

// Grid is a 2D process grid mapping tiles to ranks block-cyclically, the
// distribution the paper's distributed runs use.
type Grid struct {
	P, Q int
}

// SquarestGrid returns the most square P×Q grid with P·Q = n, P ≤ Q.
func SquarestGrid(n int) Grid {
	p := 1
	for f := 1; f*f <= n; f++ {
		if n%f == 0 {
			p = f
		}
	}
	return Grid{P: p, Q: n / p}
}

// Owner returns the rank owning tile (i, j).
func (g Grid) Owner(i, j int) int { return (i%g.P)*g.Q + j%g.Q }

// OwnerMap overlays membership onto a Grid: the grid's block-cyclic layout
// is kept as a *logical* tile-to-slot mapping, and the map assigns each
// slot a physical rank. While every rank is alive the assignment is the
// identity (slot s belongs to rank s, exactly the plain Grid semantics);
// when ranks die their slots are reassigned deterministically to the
// survivors, so the survivors keep every tile they already own and only the
// dead ranks' tiles change hands.
type OwnerMap struct {
	Grid Grid
	phys []int // slot -> physical rank
}

// NewOwnerMap builds the identity assignment for grid.
func NewOwnerMap(grid Grid) *OwnerMap {
	m := &OwnerMap{Grid: grid, phys: make([]int, grid.P*grid.Q)}
	for s := range m.phys {
		m.phys[s] = s
	}
	return m
}

// Owner returns the physical rank owning tile (i, j).
func (m *OwnerMap) Owner(i, j int) int { return m.phys[m.Grid.Owner(i, j)] }

// Reassign recomputes the slot assignment for a membership view: slots
// whose physical rank is alive keep it; slots of dead ranks are dealt
// round-robin over the ascending survivors, keyed by slot index. The
// result is a pure function of (grid, alive), so every rank computes the
// identical assignment from the agreed membership with no extra
// communication. Returns the slots that changed hands.
func (m *OwnerMap) Reassign(alive []bool) (moved []int) {
	var survivors []int
	for r, a := range alive {
		if a {
			survivors = append(survivors, r)
		}
	}
	if len(survivors) == 0 {
		panic("mpi: OwnerMap.Reassign with no survivors")
	}
	for s := range m.phys {
		want := s
		if !alive[want] {
			want = survivors[s%len(survivors)]
		}
		if m.phys[s] != want {
			moved = append(moved, s)
		}
		m.phys[s] = want
	}
	return moved
}
