// Package core implements the paper's contribution: Gaussian maximum
// likelihood estimation and prediction for large spatial datasets, written
// once over four interchangeable computation modes (rows of the modes
// table) —
//
//   - FullBlock: one dense matrix, LAPACK-style blocked Cholesky (the MKL
//     baseline of Fig. 3);
//   - FullTile: tile algorithms over the task runtime (the Chameleon path);
//   - TLR: tile low-rank compression at a user accuracy (the HiCMA path);
//   - HODLR: hierarchically off-diagonal low-rank — the recursive format
//     the paper's §II positions TLR against, factored by a task-parallel
//     hierarchical Cholesky (internal/hodlr).
//
// The log-likelihood (paper eq. 1) is
//
//	ℓ(θ) = −n/2·log 2π − 1/2·log|Σ(θ)| − 1/2·Zᵀ Σ(θ)⁻¹ Z,
//
// evaluated via a Cholesky factorization: log|Σ| = 2Σ log L_ii and
// ZᵀΣ⁻¹Z = ‖L⁻¹Z‖². Prediction (paper eq. 4) solves Z₁ = Σ₁₂ Σ₂₂⁻¹ Z₂.
package core

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/chaos"
	"repro/internal/cov"
	"repro/internal/geom"
	"repro/internal/tlr"
)

// Mode selects the computation technique: how Σ(θ) is stored and factored.
type Mode int

// Computation modes (paper §VIII terminology, plus the hierarchical HODLR
// format the paper's §II positions TLR against).
const (
	FullBlock Mode = iota
	FullTile
	TLR
	HODLR
)

// Config selects and tunes a computation mode. The zero value is valid and
// means "dense full-block, library defaults"; DefaultConfig documents every
// default in one place. Invalid settings (negative sizes, a compressor
// other than rsvd, Ranks > 1 outside TLR) are rejected by Validate, which
// every public entry point calls — they are never silently coerced.
type Config struct {
	Mode Mode
	// TileSize is the tile edge nb for FullTile and TLR, and the dense leaf
	// size of the HODLR tree (0 = default 128).
	TileSize int
	// Accuracy is the low-rank compression threshold for TLR and HODLR
	// (0 = default 1e-9); ignored by the dense modes.
	Accuracy float64
	// CompressorName selects nothing: TLR and HODLR always compress with
	// the randomized SVD (tlr.CompressRSVD). Validate accepts "" and
	// "rsvd" and refuses anything else, "svd" included. The field stays
	// only because the benchmark module still sets it; the change that
	// next edits that module (ROADMAP item 1) deletes it, along with
	// tlr.CompressorByName.
	CompressorName string
	// Workers is the shared-memory runtime worker count (0 = default 1).
	Workers int
	// Nugget is added to the covariance diagonal for numerical stability
	// (0 = default 1e-9·θ₁). Fit concentrates θ₁ out and factors
	// θ̂₁·(R + τ²I) with R the correlation matrix: at the default, τ² =
	// 1e-9 and that is exactly Σ(θ̂); an explicit Nugget is τ², applied on
	// the correlation scale during the fit and as given everywhere else.
	Nugget float64
	// Ranks selects distributed-memory execution when > 1: the TLR matrix is
	// sharded 2D block-cyclically over that many ranks, on the most square
	// process grid, and factored with the distributed TLR Cholesky
	// (internal/mpi). 0 or 1 means the shared-memory path. Requires
	// Mode == TLR.
	Ranks int
	// MaxRetries is the number of times one evaluation is re-run from
	// generation after a fault of the execution itself: a task panic, or on
	// ranks a rank death (a panic, an injected kill, or a receive timeout
	// diagnosing a silent peer), which also replaces the world with a fresh
	// one a rank smaller while more than one remains, on that rank count's
	// most square grid. 0 (the default) surfaces the
	// fault. A re-run reads nothing but the locations, θ, the nugget and the
	// per-tile seeds, so its result is bitwise that of an unfaulted run. A
	// non-positive-definite pivot is a property of θ, not of the execution,
	// and is never replayed: the nugget grows tenfold, up to three times.
	MaxRetries int
	// Ordering selects the spatial ordering of the session's locations —
	// the permutation applied before tiling, which controls off-diagonal
	// tile ranks and with them TLR compression flops, memory, and the
	// distributed run's wire bytes. "none" keeps the Problem's order,
	// "morton" the Z-order curve, "hilbert" the Hilbert curve, and "kdblock"
	// KD-tree recursive bisection into TileSize-aligned blocks. "" (the zero
	// value) picks by mode: Mode == TLR (shared, out of core or on ranks)
	// means "kdblock", so every tile is one compact KD cell and the
	// off-diagonal ranks are lower than on Morton runs; every other mode
	// means "morton", since a dense factorization costs the same in any
	// locality-preserving order and HODLR measured worse on KD cells.
	// NewSession is the one place an ordering is applied: the session sorts
	// a private copy of the Problem (none when the permutation is the
	// identity) and keeps the permutation to itself.
	Ordering string
	// Chaos, when non-nil, injects the plan's deterministic faults into the
	// session's executions — task panics/stragglers on any task graph, on
	// the worker pool or on ranks, forced compression misses in TLR, rank
	// kills on ranks. Validate refuses a fault the configuration has no
	// place for. Nil (the default) injects nothing and pays a single nil
	// check per hook site.
	Chaos *chaos.FaultPlan
	// MemBudget, when > 0, bounds the resident tile bytes of the TLR
	// mode: tiles beyond the budget are evicted to a disk spill file and
	// reloaded on demand (out-of-core execution). Results are bitwise
	// identical to the in-memory run. The budget is soft — the in-flight
	// working set (tiles pinned by executing tasks and solves) is never
	// evicted — so it must be at least tlr.MinMemBudget(TileSize, Workers).
	// 0 (the default) keeps every tile resident. Requires Mode == TLR on
	// the shared-memory path (Ranks ≤ 1).
	MemBudget int64
	// SpillDir is the directory the out-of-core spill file is created in
	// ("" = the OS temp dir). NewSession creates the file, so a directory
	// that cannot hold one fails there; it is unlinked at creation, so it
	// can never outlive the process, crash or no crash. Set it only with
	// MemBudget > 0.
	SpillDir string
}

// DefaultConfig returns the library defaults spelled out: dense full-block
// mode, 128-point tiles, 1e-9 TLR accuracy (every compressed tile goes
// through the randomized SVD, the one compressor), one worker, data-scaled
// nugget (1e-9·θ₁, encoded as Nugget=0), the ordering picked by mode
// (Ordering "": KD blocks at TileSize for TLR, Morton otherwise),
// shared-memory execution. A zero Config behaves identically;
// this function exists so the defaults are documented and greppable in one
// place.
func DefaultConfig() Config {
	return Config{
		Mode:       FullBlock,
		TileSize:   128,
		Accuracy:   1e-9,
		Workers:    1,
		Nugget:     0,
		Ranks:      1,
		Ordering:   "", // by mode: see Config.Ordering
		MaxRetries: 0,
	}
}

// Validate checks the configuration and returns a descriptive error instead
// of coercing bad values. Zero fields mean "use the default" and are always
// valid; negative, non-finite or inconsistent fields are not.
func (c Config) Validate() error {
	if _, err := lookupMode(c.Mode, c.Ranks); err != nil {
		return err
	}
	if c.TileSize < 0 {
		return fmt.Errorf("core: negative TileSize %d", c.TileSize)
	}
	if !(c.Accuracy >= 0 && c.Accuracy <= math.MaxFloat64) {
		return fmt.Errorf("core: Accuracy %g is not a finite non-negative number", c.Accuracy)
	}
	if c.Workers < 0 {
		return fmt.Errorf("core: negative Workers %d", c.Workers)
	}
	if !(c.Nugget >= 0 && c.Nugget <= math.MaxFloat64) {
		return fmt.Errorf("core: Nugget %g is not a finite non-negative number", c.Nugget)
	}
	if c.CompressorName != "" && c.CompressorName != "rsvd" {
		return fmt.Errorf("core: CompressorName %q: rsvd is the one compressor (leave the field empty)", c.CompressorName)
	}
	if c.Ordering != "" {
		if _, err := geom.NewOrdering(c.Ordering, c.TileSize); err != nil {
			return fmt.Errorf("core: %w", err)
		}
	}
	if c.Ranks < 0 {
		return fmt.Errorf("core: negative Ranks %d", c.Ranks)
	}
	if c.MemBudget < 0 {
		return fmt.Errorf("core: negative MemBudget %d", c.MemBudget)
	}
	if c.SpillDir != "" && c.MemBudget == 0 {
		return fmt.Errorf("core: SpillDir %q without a MemBudget: nothing would spill", c.SpillDir)
	}
	if c.MemBudget > 0 {
		if c.Mode != TLR {
			return fmt.Errorf("core: MemBudget requires Mode=TLR, got %v", c.Mode)
		}
		if c.Ranks > 1 {
			return fmt.Errorf("core: MemBudget bounds the shared-memory tile store; unsupported with Ranks=%d", c.Ranks)
		}
		n := c.normalized()
		if floor := tlr.MinMemBudget(n.TileSize, n.Workers); c.MemBudget < floor {
			return fmt.Errorf("core: MemBudget %d below the in-flight working set %d for TileSize=%d, Workers=%d (pinned tiles are never evicted)",
				c.MemBudget, floor, n.TileSize, n.Workers)
		}
	}
	if c.MaxRetries < 0 {
		return fmt.Errorf("core: negative MaxRetries %d", c.MaxRetries)
	}
	if p := c.Chaos; p != nil {
		if err := p.Validate(); err != nil {
			return fmt.Errorf("core: Chaos: %w", err)
		}
		// a fault the configuration has no place for would never fire
		switch {
		case p.KillRank > 0 && (c.Ranks <= 1 || p.KillRank > c.Ranks):
			return fmt.Errorf("core: Chaos.KillRank=%d names no rank of Ranks=%d", p.KillRank, c.Ranks)
		case p.CompressMisses > 0 && c.Mode != TLR:
			return fmt.Errorf("core: Chaos.CompressMisses requires Mode=TLR, got %v", c.Mode)
		case p.TaskPanics > 0 && c.Mode == FullBlock:
			return fmt.Errorf("core: Chaos.TaskPanics: Mode=%v runs no task graph", c.Mode)
		case p.TaskDelays > 0 && c.Mode == FullBlock:
			return fmt.Errorf("core: Chaos.TaskDelays: Mode=%v runs no task graph", c.Mode)
		}
	}
	return nil
}

// normalized fills the zero fields from DefaultConfig, the one place the
// defaults are written, and resolves an empty Ordering by mode: "kdblock"
// under TLR, "morton" otherwise. Negative fields are Validate's to refuse.
func (c Config) normalized() Config {
	d := DefaultConfig()
	if c.TileSize == 0 {
		c.TileSize = d.TileSize
	}
	if c.Accuracy == 0 {
		c.Accuracy = d.Accuracy
	}
	if c.Workers == 0 {
		c.Workers = d.Workers
	}
	if c.Ranks == 0 {
		c.Ranks = d.Ranks
	}
	if c.Ordering == "" {
		c.Ordering = geom.OrderMorton
		if c.Mode == TLR {
			c.Ordering = geom.OrderKDBlock
		}
	}
	return c
}

func (c Config) nugget(variance float64) float64 {
	if c.Nugget > 0 {
		return c.Nugget
	}
	return 1e-9 * variance
}

// Problem is a spatial dataset: locations, one measurement per location, and
// the distance metric the covariance operates under, in the caller's order.
// The order a computation runs in is the session's (Config.Ordering).
type Problem struct {
	Points []geom.Point
	Z      []float64
	Metric geom.Metric
}

// NewProblem validates a dataset and bundles a copy of it, in the caller's
// order.
func NewProblem(pts []geom.Point, z []float64, metric geom.Metric) (*Problem, error) {
	if len(pts) == 0 {
		return nil, errors.New("core: empty dataset")
	}
	if len(pts) != len(z) {
		return nil, fmt.Errorf("core: %d locations but %d measurements", len(pts), len(z))
	}
	if err := finitePoints("observation", pts); err != nil {
		return nil, err
	}
	for i, v := range z {
		if !finite(v) {
			return nil, fmt.Errorf("core: measurement %d is %g, not a finite number", i, v)
		}
	}
	return &Problem{Points: slices.Clone(pts), Z: slices.Clone(z), Metric: metric}, nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// finitePoints rejects a location with a NaN or infinite coordinate, naming
// its index: a covariance at a non-finite distance is not defined, and no
// kernel form reports one.
func finitePoints(what string, pts []geom.Point) error {
	for i, p := range pts {
		if !finite(p.X) || !finite(p.Y) {
			return fmt.Errorf("core: %s location %d is (%g, %g), not finite", what, i, p.X, p.Y)
		}
	}
	return nil
}

// N returns the number of observations.
func (p *Problem) N() int { return len(p.Points) }

// RestoreOrder returns a copy of v: a Problem keeps the caller's order, so
// there is nothing to restore. It stays only because the benchmark module
// calls it; the change that next edits that module (ROADMAP item 1) deletes
// it and RestorePoints.
func (p *Problem) RestoreOrder(v []float64) []float64 { return slices.Clone(v) }

// RestorePoints returns a copy of pts; see RestoreOrder.
func (p *Problem) RestorePoints(pts []geom.Point) []geom.Point { return slices.Clone(pts) }

// LikResult carries one likelihood evaluation with its diagnostics.
type LikResult struct {
	Value    float64 // ℓ(θ)
	LogDet   float64
	QuadForm float64 // Zᵀ Σ⁻¹ Z
	// Bytes is the covariance storage the evaluation needed.
	Bytes int64
	// MaxRank/MeanRank describe the TLR compression (zero for dense modes).
	MaxRank  int
	MeanRank float64
	// NuggetUsed is the diagonal nugget the successful factorization ran
	// with; NuggetRetries counts how many escalations it took to get there
	// (0 = the configured nugget worked first try).
	NuggetUsed    float64
	NuggetRetries int
}

// LogLikelihood evaluates ℓ(θ) for the problem under cfg — the convenience
// path for one-off evaluations. Callers that evaluate many θ on one problem
// should hold a Session instead, which owns the cached buffers and task
// graph explicitly and reuses them across calls.
func LogLikelihood(p *Problem, theta cov.Params, cfg Config) (LikResult, error) {
	s, err := NewSession(p, cfg)
	if err != nil {
		return LikResult{}, err
	}
	defer s.Close()
	return s.LogLikelihood(theta)
}

// FitOptions controls the MLE search.
type FitOptions struct {
	// Start is the initial θ; zero fields are replaced by defaults (0.1
	// range, 0.5 smoothness). Fit concentrates θ₁ out, so only the range
	// and smoothness of Start, Lower and Upper steer the search; their
	// variance fields are read only into the checkpoint digest.
	Start cov.Params
	// Lower/Upper bound the search box; zero fields get broad defaults.
	Lower, Upper cov.Params
	// MaxEvals caps likelihood evaluations (default 300).
	MaxEvals int
	// TolX is the optimizer's parameter tolerance (default 1e-4).
	TolX float64
	// FixSmoothness pins θ₃ to Start.Smoothness instead of estimating it —
	// common practice when the smoothness is known a priori.
	FixSmoothness bool
	// Profiled has no effect: every Fit concentrates θ₁ out. The field
	// stays only because the benchmark module still sets it; the change
	// that next edits that module (ROADMAP item 1) deletes it, along with
	// tlr.Matrix.MaxRank, tlr.GemmLL and optimize.Options.Restarts.
	Profiled bool
	// Checkpoint, when non-empty, makes the fit restartable: the bit-exact
	// (x, ℓ) evaluation log is written atomically to this path every
	// CheckpointEvery evaluations, stamped with a digest of the dataset and
	// the result-affecting options. A Fit started against an existing,
	// matching checkpoint replays the recorded evaluations instead of
	// recomputing them — the optimizer is deterministic, so a run killed
	// mid-fit resumes to bitwise-identical results. A digest mismatch
	// (different data, config, or options) is an error, never a silent
	// restart. MaxEvals is excluded from the digest so a resumed run may
	// extend a truncated one.
	Checkpoint string
	// CheckpointEvery is the checkpoint flush cadence in likelihood
	// evaluations (default 10). Ignored when Checkpoint is empty.
	CheckpointEvery int
}

// FitResult is the outcome of a maximum likelihood fit.
type FitResult struct {
	Theta cov.Params
	LogL  float64
	// Evals is the number of likelihood evaluations the search made, each
	// one factorization unless a checkpoint replayed it. θ̂₁ comes from the
	// evaluation at the optimum, so the fit factors once more only when
	// that evaluation was replayed; Evals does not count that one, and a
	// resumed fit reports what the uninterrupted one does.
	Evals int
	// Converged reports the optimizer's convergence flag.
	Converged bool
}

func (o FitOptions) withDefaults() FitOptions {
	if o.MaxEvals <= 0 {
		o.MaxEvals = 300
	}
	if o.TolX <= 0 {
		o.TolX = 1e-4
	}
	if o.CheckpointEvery <= 0 {
		o.CheckpointEvery = 10
	}
	if o.Start.Range <= 0 {
		o.Start.Range = 0.1
	}
	if o.Start.Smoothness <= 0 {
		o.Start.Smoothness = 0.5
	}
	if o.Lower.Range <= 0 {
		o.Lower.Range = 1e-3
	}
	if o.Lower.Smoothness <= 0 {
		o.Lower.Smoothness = 0.1
	}
	if o.Upper.Range <= 0 {
		o.Upper.Range = 10
	}
	if o.Upper.Smoothness <= 0 {
		o.Upper.Smoothness = 3
	}
	return o
}

// Fit estimates θ̂ by maximizing the log-likelihood with the derivative-free
// optimizer — the convenience path wrapping Session.Fit on a fresh Session.
func Fit(p *Problem, cfg Config, opts FitOptions) (FitResult, error) {
	s, err := NewSession(p, cfg)
	if err != nil {
		return FitResult{}, err
	}
	defer s.Close()
	return s.Fit(opts)
}

// Predict imputes measurements at newPts from the fitted model (paper eq. 4):
// Ẑ₁ = Σ₁₂ Σ₂₂⁻¹ Z₂, with Σ₂₂ factored in the configured mode and the
// (small) cross-covariance Σ₁₂ applied densely row by row. Convenience path
// wrapping Session.Predict on a fresh Session.
func Predict(p *Problem, newPts []geom.Point, theta cov.Params, cfg Config) ([]float64, error) {
	s, err := NewSession(p, cfg)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	return s.Predict(newPts, theta)
}

// MSE returns the mean squared error between predictions and truth
// (paper eq. 7).
func MSE(pred, truth []float64) float64 {
	if len(pred) != len(truth) {
		panic("core: MSE length mismatch")
	}
	if len(pred) == 0 {
		return 0
	}
	var s float64
	for i := range pred {
		d := pred[i] - truth[i]
		s += d * d
	}
	return s / float64(len(pred))
}
