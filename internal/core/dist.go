package core

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/chaos"
	"repro/internal/cov"
	"repro/internal/geom"
	"repro/internal/la"
	"repro/internal/mpi"
	"repro/internal/runtime"
	"repro/internal/tlr"
)

// User-range allreduce tags of the distributed likelihood (each AllreduceSum
// consumes tag and tag+1, hence the spacing).
const (
	distTagQuad    = 1 // quadratic-form partial sums
	distTagBytes   = 3 // shard storage footprints
	distTagMaxRank = 5 // max compressed rank
	distTagRankSum = 7 // rank sum (mean-rank numerator)
	distTagRankCnt = 9 // compressed-tile count (mean-rank denominator)
)

// distBackend is the distributed-memory Backend (TLR with Ranks > 1): it
// owns a persistent World and one DistTLR shard per rank, both reused across
// the optimizer's evaluations — shards regenerate their owned tiles per θ
// instead of reallocating, and the World's mailboxes are drained by every
// collective, so evaluation k+1 starts from a clean slate. Factors stay
// sharded on the ranks, so distBackend does not implement FactorBackend;
// Session routes kriging through SolveVec/HalfSolveChunked instead.
type distBackend struct {
	p    *Problem
	cfg  Config
	grid mpi.Grid
	comp tlr.Compressor
	inj  *chaos.Injector // nil unless Config.Chaos is set

	world  *mpi.World
	shards []*mpi.DistTLR

	// ownersEpoch is the membership epoch every shard's ownership map
	// reflects; it trails world.Epoch() between a rank death and the next
	// completed run.
	ownersEpoch int64

	// Graceful-degradation bookkeeping, mirroring localBackend's.
	diag Diagnostics

	epoch time.Time // trace epoch set by EnableTracing
}

func newDistBackend(p *Problem, cfg Config, inj *chaos.Injector) (*distBackend, error) {
	comp, err := tlr.CompressorByName(cfg.CompressorName)
	if err != nil {
		return nil, err
	}
	w := mpi.NewWorld(cfg.Ranks)
	if cfg.RecvTimeout > 0 {
		w.SetRecvTimeout(cfg.RecvTimeout)
	}
	if inj != nil {
		w.SetMsgHook(func(src, dst, tag int, bytes int64, attempt int) mpi.MsgFault {
			drop, delay := inj.MessageFault(src, dst, tag, attempt)
			switch {
			case drop:
				return mpi.MsgFault{Verdict: mpi.MsgDrop}
			case delay > 0:
				return mpi.MsgFault{Verdict: mpi.MsgDelay, Delay: delay}
			}
			return mpi.MsgFault{Verdict: mpi.MsgDeliver}
		})
	}
	return &distBackend{
		p:    p,
		cfg:  cfg,
		grid: mpi.Grid{P: cfg.Grid[0], Q: cfg.Grid[1]},
		comp: comp,
		inj:  inj,

		world:  w,
		shards: make([]*mpi.DistTLR, cfg.Ranks),
	}, nil
}

func (e *distBackend) Mode() Mode               { return e.cfg.Mode }
func (e *distBackend) Diagnostics() Diagnostics { return e.diag }

// EnableTracing starts a timestamped communication timeline on the World.
func (e *distBackend) EnableTracing() {
	e.epoch = time.Now()
	e.world.EnableTrace(e.epoch)
}

// Trace renders the communication timeline as a runtime.Trace — one worker
// lane per rank, every cross-rank message an instant event. Nil until
// EnableTracing is called.
func (e *distBackend) Trace() *runtime.Trace {
	if !e.world.TraceEnabled() {
		return nil
	}
	tr := &runtime.Trace{Workers: e.cfg.Ranks}
	tr.MergeEvents(e.world.TraceEvents(0))
	tr.Wall = time.Since(e.epoch)
	return tr
}

// CommStats returns the per-rank cumulative traffic — the measured
// counterpart of cluster.DistCholeskyComm.
func (e *distBackend) CommStats() []mpi.CommStats {
	out := make([]mpi.CommStats, e.cfg.Ranks)
	for r := range out {
		out[r] = e.world.Stats(r)
	}
	return out
}

// absorbDeath is the distributed replayable verdict for recoverLoop: err
// wraps a rank-death diagnosis of the current membership epoch naming a
// still-live rank, and that rank is not the last one. The rank is marked
// dead, so the re-run happens on the survivors. Stale diagnoses (from before
// an already-completed shrink) are not replayable.
func (e *distBackend) absorbDeath(err error) bool {
	var rd *mpi.RankDeath
	if !errors.As(err, &rd) || rd.Epoch != e.world.Epoch() || !e.world.Alive(rd.Rank) || e.world.AliveCount() <= 1 {
		return false
	}
	e.world.MarkDead(rd.Rank)
	e.diag.RanksLost++
	return true
}

// withFactored runs fn on every rank against its freshly generated and
// factored shard, under the recovery rule (recoverLoop). A Cholesky
// breakdown — which the SPD-agreement allreduce makes every rank observe
// identically — and a rank death are both repaired by running the world
// again from generation, at a larger nugget or on the survivors.
func (e *distBackend) withFactored(k *cov.Kernel, nugget float64, fn func(c *mpi.Comm, d *mpi.DistTLR) error) error {
	return recoverLoop(e.cfg.MaxRetries, &e.diag, nugget, func(cur float64) error {
		return e.runOnce(k, cur, fn)
	}, e.absorbDeath)
}

// runOnce is one generate → factor → fn pass over the live ranks. When the
// membership changed since the shards last agreed on it, the run opens with
// the epoch-tagged membership agreement (doubling as the post-shrink
// barrier) and remaps ownership, so Generate also materializes the tiles the
// survivors inherited. It returns the first rank error.
func (e *distBackend) runOnce(k *cov.Kernel, nugget float64, fn func(c *mpi.Comm, d *mpi.DistTLR) error) error {
	epoch := e.world.Epoch()
	shrunk := epoch != e.ownersEpoch
	errs := e.world.Run(func(c *mpi.Comm) error {
		if e.inj != nil {
			e.inj.RankFault(c.Rank())
		}
		d := e.shards[c.Rank()]
		if d == nil {
			d = mpi.NewDistTLR(c.Rank(), e.grid, e.p.Points, e.p.Metric, e.cfg.TileSize, e.cfg.Accuracy, e.comp)
			if e.inj != nil {
				d.ForceMiss = e.inj.CompressMiss
				d.PanelHook = e.inj.PanelKill
			}
			e.shards[c.Rank()] = d
		}
		if shrunk {
			alive, _, err := c.AgreeAlive()
			if err != nil {
				return err
			}
			d.ApplyMembership(alive)
		}
		d.Generate(k, nugget)
		if err := d.Cholesky(c); err != nil {
			return err
		}
		return fn(c, d)
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	e.ownersEpoch = epoch
	return nil
}

// evalParts runs one distributed likelihood evaluation: factor, log|Σ| via
// the factor's allreduce, L⁻¹Z via the replicated forward solve, and the
// quadratic form plus the diagnostic stats via one AllreduceSum each.
func (e *distBackend) evalParts(k *cov.Kernel, nugget float64) (logDet, quad float64, diag LikResult, err error) {
	type parts struct {
		logDet, quad              float64
		bytes                     float64
		maxRank, rankSum, rankCnt float64
	}
	out := make([]parts, e.cfg.Ranks)
	err = e.withFactored(k, nugget, func(c *mpi.Comm, d *mpi.DistTLR) error {
		ld, err := d.LogDet(c)
		if err != nil {
			return err
		}
		y := append([]float64(nil), e.p.Z...)
		if err := d.ForwardSolve(c, y); err != nil {
			return err
		}
		// per-tile-row ‖y‖² contributions, reduced as a vector (one nonzero
		// contributor per slot — exact) and summed in fixed i-ascending
		// order, so the quadratic form is bitwise-independent of how tile
		// rows are grouped over ranks (the elastic-recovery guarantee).
		qvec := make([]float64, d.MT)
		for i := 0; i < d.MT; i++ {
			if d.Owner(i, i) == c.Rank() {
				yi := y[i*d.NB : i*d.NB+d.TileDim(i)]
				qvec[i] = la.Dot(yi, yi)
			}
		}
		qsum, err := c.AllreduceSumVec(distTagQuad, qvec)
		if err != nil {
			return err
		}
		var quad float64
		for _, v := range qsum {
			quad += v
		}
		bytes, err := c.AllreduceSum(distTagBytes, float64(d.Bytes()))
		if err != nil {
			return err
		}
		maxR, sumR, cntR := d.LocalRankStats()
		maxRank, err := c.AllreduceMax(distTagMaxRank, float64(maxR))
		if err != nil {
			return err
		}
		rankSum, err := c.AllreduceSum(distTagRankSum, float64(sumR))
		if err != nil {
			return err
		}
		rankCnt, err := c.AllreduceSum(distTagRankCnt, float64(cntR))
		if err != nil {
			return err
		}
		out[c.Rank()] = parts{
			logDet: ld, quad: quad, bytes: bytes,
			maxRank: maxRank, rankSum: rankSum, rankCnt: rankCnt,
		}
		return nil
	})
	if err != nil {
		return 0, 0, LikResult{}, err
	}
	p0 := out[e.world.LowestAlive()]
	diag = LikResult{Bytes: int64(p0.bytes), MaxRank: int(p0.maxRank)}
	if p0.rankCnt > 0 {
		diag.MeanRank = p0.rankSum / p0.rankCnt
	}
	diag.NuggetUsed, diag.NuggetRetries = e.diag.LastNugget, e.diag.LastRetries
	return p0.logDet, p0.quad, diag, nil
}

// LogLikelihood evaluates ℓ(θ) (paper eq. 1) on the distributed backend:
// one AllreduceSum for the log-determinant term, one for the quadratic form.
func (e *distBackend) LogLikelihood(theta cov.Params) (LikResult, error) {
	if err := theta.Validate(); err != nil {
		return LikResult{}, err
	}
	logDet, quad, res, err := e.evalParts(cov.NewKernel(theta), e.cfg.nugget(theta.Variance))
	if err != nil {
		return LikResult{}, err
	}
	res.LogDet = logDet
	res.QuadForm = quad
	n := float64(e.p.N())
	res.Value = -0.5*n*math.Log(2*math.Pi) - 0.5*logDet - 0.5*quad
	return res, nil
}

// ProfiledLogLikelihood evaluates the concentrated likelihood ℓ_p(θ₂, θ₃) on
// the distributed backend (see ProfiledLogLikelihood).
func (e *distBackend) ProfiledLogLikelihood(rangeP, smoothness float64) (logL, varianceHat float64, err error) {
	theta := cov.Params{Variance: 1, Range: rangeP, Smoothness: smoothness}
	if err := theta.Validate(); err != nil {
		return 0, 0, err
	}
	logDet, quad, _, err := e.evalParts(cov.NewKernel(theta), e.cfg.nugget(1))
	if err != nil {
		return 0, 0, err
	}
	n := float64(e.p.N())
	varianceHat = quad / n
	if varianceHat <= 0 {
		return 0, 0, fmt.Errorf("core: degenerate profiled variance %g", varianceHat)
	}
	logL = -0.5*n*(math.Log(2*math.Pi)+1+math.Log(varianceHat)) - 0.5*logDet
	return logL, varianceHat, nil
}

// SolveVec overwrites b with Σ⁻¹·b using the distributed factorization.
// Every rank works on a private replica; the lowest live rank's (identical)
// result is copied back into b.
func (e *distBackend) SolveVec(k *cov.Kernel, nugget float64, b []float64) error {
	replicas := make([][]float64, e.cfg.Ranks)
	err := e.withFactored(k, nugget, func(c *mpi.Comm, d *mpi.DistTLR) error {
		y := append([]float64(nil), b...)
		if err := d.Solve(c, y); err != nil {
			return err
		}
		replicas[c.Rank()] = y
		return nil
	})
	if err != nil {
		return err
	}
	copy(b, replicas[e.world.LowestAlive()])
	return nil
}

// HalfSolveChunked is the bounded-memory prediction-variance pair: it factors
// once, forward-solves y = L⁻¹·Z₂ on every rank, then assembles and
// forward-solves Σ₂₁ one TileSize-wide column block at a time — each rank
// holds one n×chunk block instead of the full n×m W. Every rank computes an
// identical replica; the lowest live rank hands each solved block to visit
// (called sequentially, with the block's starting column) so the caller can
// accumulate means and norms without the blocks ever coexisting.
func (e *distBackend) HalfSolveChunked(k *cov.Kernel, nugget float64, newPts []geom.Point, chunk int, y []float64, visit func(col int, w *la.Mat, y []float64)) error {
	n := e.p.N()
	m := len(newPts)
	return e.withFactored(k, nugget, func(c *mpi.Comm, d *mpi.DistTLR) error {
		yr := append([]float64(nil), y...)
		if err := d.ForwardSolve(c, yr); err != nil {
			return err
		}
		for c0 := 0; c0 < m; c0 += chunk {
			c1 := min(c0+chunk, m)
			w := la.NewMat(n, c1-c0)
			k.Block(w, e.p.Points, newPts[c0:c1], e.p.Metric)
			if err := d.ForwardSolveMat(c, w); err != nil {
				return err
			}
			if c.Rank() == c.LowestAlive() {
				visit(c0, w, yr)
			}
		}
		return nil
	})
}

// CommStats returns the per-rank cumulative traffic of the distributed
// backend (nil for shared-memory sessions).
func (s *Session) CommStats() []mpi.CommStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	cb, ok := s.be.(CommBackend)
	if !ok {
		return nil
	}
	return cb.CommStats()
}
