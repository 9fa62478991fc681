package core

import (
	"errors"
	"time"

	"repro/internal/chaos"
	"repro/internal/cov"
	"repro/internal/la"
	"repro/internal/mpi"
	"repro/internal/tlr"
)

// chaosRecvTimeout bounds a rank's wait for one message while fault
// injection is armed. Nothing in the process can lose a message; the
// deadline is there so that a fault drill gone wrong ends in an error
// instead of a hung run.
const chaosRecvTimeout = 30 * time.Second

// distState is the fifth way to factor — TLR over Config.Ranks > 1 ranks: a
// persistent World and one DistTLR shard per rank, both reused across the
// optimizer's evaluations. Shards regenerate their owned tiles per θ instead
// of reallocating, and every run drains the World's mailboxes, so evaluation
// k+1 starts from a clean slate. The factor stays sharded on the ranks;
// distFactor runs the World once per operation on it.
type distState struct {
	world  *mpi.World
	shards []*mpi.DistTLR  // one per rank, nil until factorizeOnce builds it
	inj    *chaos.Injector // nil unless Config.Chaos is set
}

func newDistState(e *evaluator) (factorizer, error) {
	d := &distState{inj: e.inj}
	d.newWorld(e.cfg.Ranks)
	return d, nil
}

// newWorld replaces the World and its shards with a fresh World of size ranks
// and no shards: at the start, and as the shrink after a rank death. The
// receive deadline is armed when fault injection is.
func (d *distState) newWorld(size int) {
	w := mpi.NewWorld(size)
	if d.inj != nil {
		w.SetRecvTimeout(chaosRecvTimeout)
	}
	d.world, d.shards = w, make([]*mpi.DistTLR, size)
}

// run executes fn on every rank and returns the first rank error.
func (d *distState) run(fn func(c *mpi.Comm) error) error {
	for _, err := range d.world.Run(fn) {
		if err != nil {
			return err
		}
	}
	return nil
}

// replayable is the verdict on ranks: err wraps a rank-death diagnosis and
// the World has a rank to spare. The shrink is MPI_Comm_shrink's: the World
// and its shards are dropped for a fresh World one rank smaller, on which the
// re-run generates every tile anew. Nothing of the failed run is carried
// over, so there is no membership to agree on.
func (d *distState) replayable(err error) bool {
	var rd *mpi.RankDeath
	if !errors.As(err, &rd) || d.world.Size() <= 1 {
		return false
	}
	d.newWorld(d.world.Size() - 1)
	return true
}

// factorizeOnce is one generate → factor pass over the ranks, building each
// rank's shard on the World's squarest grid the first time it runs. A
// Cholesky breakdown fails the rank that owns the pivot and a rank death the
// rank that died; either way the World's poison fails every rank still
// waiting on it, so the run fails.
func (d *distState) factorizeOnce(e *evaluator, k *cov.Kernel, nugget float64) (Factor, error) {
	comp, err := tlr.CompressorByName(e.cfg.CompressorName)
	if err != nil {
		return nil, err
	}
	err = d.run(func(c *mpi.Comm) error {
		sh := d.shards[c.Rank()]
		if sh == nil {
			sh = mpi.NewDistTLR(mpi.SquarestGrid(c.Size()), e.p.Points, e.p.Metric, e.cfg.TileSize, e.cfg.Accuracy, comp)
			if d.inj != nil {
				sh.ForceMiss = d.inj.CompressMiss
				sh.Inject = d.inj.ForRank(c.Rank())
			}
			d.shards[c.Rank()] = sh
		}
		return sh.GenCholesky(c, k, nugget)
	})
	if err != nil {
		return nil, err
	}
	return distFactor{d}, nil
}

// distFactor is the factorization distState leaves sharded over the ranks.
// Each operation is one World.Run against the shards in which every rank
// computes an identical replica of the result; rank 0's is handed back. A
// rank death fails the operation, and with it the attempt of the recovery
// rule it is part of.
type distFactor struct{ d *distState }

// use runs fn on every rank against its shard.
func (f distFactor) use(fn func(c *mpi.Comm, sh *mpi.DistTLR) error) error {
	return f.d.run(func(c *mpi.Comm) error { return fn(c, f.d.shards[c.Rank()]) })
}

// onReplicas runs solve on a private copy of b per rank and copies rank 0's
// back into b.
func (f distFactor) onReplicas(b *la.Mat, solve func(c *mpi.Comm, sh *mpi.DistTLR, b *la.Mat) error) error {
	replicas := make([]*la.Mat, len(f.d.shards))
	err := f.use(func(c *mpi.Comm, sh *mpi.DistTLR) error {
		replicas[c.Rank()] = b.Clone()
		return solve(c, sh, replicas[c.Rank()])
	})
	if err != nil {
		return err
	}
	b.CopyFrom(replicas[0])
	return nil
}

func (f distFactor) HalfSolve(b *la.Mat) error {
	return f.onReplicas(b, func(c *mpi.Comm, sh *mpi.DistTLR, w *la.Mat) error {
		return sh.ForwardSolveMat(c, w)
	})
}

func (f distFactor) Solve(b *la.Mat) error {
	return f.onReplicas(b, func(c *mpi.Comm, sh *mpi.DistTLR, w *la.Mat) error {
		if err := sh.ForwardSolveMat(c, w); err != nil {
			return err
		}
		return sh.BackwardSolveMat(c, w)
	})
}

func (f distFactor) LogDet() (logDet float64, err error) {
	err = f.use(func(c *mpi.Comm, sh *mpi.DistTLR) error {
		ld, err := sh.LogDet(c)
		if c.Rank() == 0 {
			logDet = ld
		}
		return err
	})
	return logDet, err
}

// Bytes sums the shards' footprints.
func (f distFactor) Bytes() int64 {
	var b int64
	for _, sh := range f.d.shards {
		b += sh.Bytes()
	}
	return b
}

// RankStats reduces the shards' rank sums.
func (f distFactor) RankStats() (maxRank int, meanRank float64) {
	var sum, count int
	for _, sh := range f.d.shards {
		m, s, n := sh.RankSums()
		maxRank = max(maxRank, m)
		sum += s
		count += n
	}
	if count > 0 {
		meanRank = float64(sum) / float64(count)
	}
	return maxRank, meanRank
}

// ranks returns the session's distributed factorizer, nil on shared memory.
func (s *Session) ranks() *distState {
	d, _ := s.ev.fac.(*distState)
	return d
}

// commStats returns the per-rank cumulative traffic of the World the session
// runs on now, counted since that World was built — the measured counterpart
// of cluster.DistCholeskyComm.
func (d *distState) commStats() []mpi.CommStats {
	out := make([]mpi.CommStats, d.world.Size())
	for r := range out {
		out[r] = d.world.Stats(r)
	}
	return out
}

// CommStats returns the per-rank cumulative traffic of a session on ranks
// (nil for shared-memory sessions). It describes the World the session runs
// on now: after a rank death shrank it, Config.Ranks − Metrics().RanksLost
// entries, counted since that smaller World was built.
func (s *Session) CommStats() []mpi.CommStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if d := s.ranks(); d != nil {
		return d.commStats()
	}
	return nil
}
