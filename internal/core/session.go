package core

import (
	"fmt"
	"io"
	"math"
	"sync"

	"repro/internal/chaos"
	"repro/internal/cov"
	"repro/internal/geom"
	"repro/internal/la"
	"repro/internal/obs"
	"repro/internal/optimize"
)

// Predict solve-cache counters: each Predict/PredictWithVariance either
// reuses the session's cached kriging solve state for its (θ, nugget) key
// (hit) or factors and solves anew (miss). A fit-once/predict-many workload
// should show misses only on the first prediction per θ.
var (
	cntPredictCacheHit  = obs.GetCounter("core.predict.cache.hit")
	cntPredictCacheMiss = obs.GetCounter("core.predict.cache.miss")
)

// Session owns the cached per-problem state that repeated likelihood
// evaluations, fits and predictions on one dataset share: the Σ buffer
// (FullBlock), the tile descriptors and generation+factorization DAG
// (FullTile), the TLR shell and fused DAG (TLR), or the distributed World
// and per-rank shards (TLR with Config.Ranks > 1). The free functions
// (LogLikelihood, Fit, Predict, ...) are thin wrappers that build a
// throwaway Session per call; hold a Session explicitly when making many
// calls on one problem so the reuse is part of the API contract rather than
// hidden package state.
//
// A Session is safe for concurrent use under one rule, enforced by one
// sync.RWMutex. A Predict or PredictWithVariance answered entirely from the
// solve state cached for its (θ, nugget) — the factor, Σ₂₂⁻¹Z₂ and L⁻¹Z₂,
// none of which change at a fixed θ̂ — holds the read lock and touches only
// per-call scratch, so any number of them run at once on a warm key.
// Everything that runs the backend — a predict at a key that is not cached,
// LogLikelihood, ProfiledLogLikelihood, Fit, every distributed solve — holds
// the write lock, and drops the cached factor first, because the backend
// factors into the buffers that factor aliases. The cached solve vectors are
// private copies and survive; the next variance predict at that key factors
// again.
type Session struct {
	p   *Problem
	cfg Config // validated and normalized

	inj *chaos.Injector // nil unless cfg.Chaos is set

	// be is the evaluator backend the registry built for cfg.Mode/Ranks.
	// All likelihood and kriging work routes through it; Session adds the
	// lock and the (θ, nugget)-keyed predict cache on top.
	be Backend

	// mu guards be and pred: read-held by predicts served from pred,
	// write-held by everything that runs be or changes pred.
	mu sync.RWMutex

	// pred caches the kriging solve state across Predict /
	// PredictWithVariance calls at an unchanged (θ, nugget) — the
	// fit-once/predict-many serving workload pays one factorization for the
	// first prediction and O(m·n) for every one after.
	pred predictCache
}

// predictCache is the solve state Predict and PredictWithVariance share,
// keyed by the (θ, nugget) pair it was computed for (the zero key matches no
// valid θ). yFull and yHalf are private copies, never written after they are
// stored, and stay valid for the key indefinitely; factor aliases the
// backend's cached buffers and is set to nil before the backend runs again.
type predictCache struct {
	theta  cov.Params
	nugget float64

	yFull []float64 // Σ₂₂⁻¹·Z₂ (Predict's weights)
	yHalf []float64 // L⁻¹·Z₂ (PredictWithVariance's half-solved rhs)

	factor Factor // FactorBackend modes only; nil on the distributed backend
}

func (c *predictCache) at(theta cov.Params, nugget float64) bool {
	return c.theta == theta && c.nugget == nugget
}

// NewSession validates cfg, normalizes its zero fields to the documented
// defaults, and builds the backend the configuration selects. The returned
// Session is ready for repeated Fit/LogLikelihood/Predict calls.
func NewSession(p *Problem, cfg Config) (*Session, error) {
	if p == nil || p.N() == 0 {
		return nil, fmt.Errorf("core: nil or empty problem")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.normalized()
	if cfg.Ordering != "" && cfg.Ordering != p.Ordering {
		// The configured ordering differs from the Problem's: evaluate on a
		// session-private reordered copy. The caller's Problem is untouched,
		// and the copy's Perm still maps back to caller order.
		ord, err := geom.NewOrdering(cfg.Ordering, cfg.TileSize)
		if err != nil {
			return nil, err // unreachable after Validate; kept for safety
		}
		p = p.Reordered(ord)
	}
	s := &Session{p: p, cfg: cfg}
	if cfg.Chaos != nil {
		s.inj = chaos.NewInjector(cfg.Chaos)
	}
	be, err := newBackend(p, cfg, s.inj)
	if err != nil {
		return nil, err
	}
	s.be = be
	return s, nil
}

// Close releases resources the session's backend holds outside the Go heap
// — today that is the TLR out-of-core spill file (Config.MemBudget > 0).
// Safe to call on every mode (a no-op without external resources) and
// idempotent. It waits for the calls in flight; the session must not be used
// afterwards.
func (s *Session) Close() error {
	defer s.exclusive()()
	if c, ok := s.be.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// StoreStats reports the out-of-core tile store's peak resident bytes and
// current spill-file size. ok is false when the session runs in memory
// (MemBudget == 0) or no factorization has happened yet.
func (s *Session) StoreStats() (highWater, spilled int64, ok bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if ss, hasStore := s.be.(interface {
		storeStats() (int64, int64, bool)
	}); hasStore {
		return ss.storeStats()
	}
	return 0, 0, false
}

// Backend returns the evaluator backend the session routes through — the
// registry-built object for the configured Mode. Useful for capability
// checks (FactorBackend, CommBackend); the returned backend shares the
// session's cached state but not its lock, so calling its methods while the
// session is in use is a data race.
func (s *Session) Backend() Backend { return s.be }

// ChaosStats reports the faults the session's injector has raised so far
// (the zero Stats when Config.Chaos is nil).
func (s *Session) ChaosStats() chaos.Stats {
	if s.inj == nil {
		return chaos.Stats{}
	}
	return s.inj.Stats()
}

// Config returns the session's normalized configuration (defaults resolved).
func (s *Session) Config() Config { return s.cfg }

// Problem returns the dataset the session operates on. When Config.Ordering
// differs from the ordering the Problem was built with, this is the
// session-private reordered copy (its Perm maps back to caller order), not
// the Problem passed to NewSession.
func (s *Session) Problem() *Problem { return s.p }

// exclusive takes the write lock for a call that runs the backend and drops
// the cached factor, whose buffers that run overwrites. It returns the
// unlock: defer s.exclusive()().
func (s *Session) exclusive() (unlock func()) {
	s.mu.Lock()
	s.pred.factor = nil
	return s.mu.Unlock
}

// LogLikelihood evaluates ℓ(θ) (paper eq. 1), reusing the session's cached
// state across calls.
func (s *Session) LogLikelihood(theta cov.Params) (LikResult, error) {
	defer s.exclusive()()
	return s.be.LogLikelihood(theta)
}

// ProfiledLogLikelihood evaluates the concentrated likelihood ℓ_p(θ₂, θ₃)
// (see the package-level ProfiledLogLikelihood for the formulation).
func (s *Session) ProfiledLogLikelihood(rangeP, smoothness float64) (logL, varianceHat float64, err error) {
	defer s.exclusive()()
	return s.be.ProfiledLogLikelihood(rangeP, smoothness)
}

// Fit estimates θ̂ by maximizing the log-likelihood with the derivative-free
// optimizer. The search runs over log-transformed variance and range (their
// scales span decades) and linear smoothness. Every objective call reuses
// the session's cached factorization state, and the whole search holds the
// write lock. With FitOptions.Profiled set the variance is concentrated out
// analytically and the optimizer searches only (θ₂, θ₃).
func (s *Session) Fit(opts FitOptions) (FitResult, error) {
	defer s.exclusive()()
	o := opts.withDefaults(s.p)
	if o.Profiled {
		return s.profiledFit(o)
	}

	dim := 3
	if o.FixSmoothness {
		dim = 2
	}
	toTheta := func(x []float64) cov.Params {
		t := cov.Params{
			Variance: math.Exp(x[0]),
			Range:    math.Exp(x[1]),
		}
		if o.FixSmoothness {
			t.Smoothness = o.Start.Smoothness
		} else {
			t.Smoothness = x[2]
		}
		return t
	}
	lower := []float64{math.Log(o.Lower.Variance), math.Log(o.Lower.Range), o.Lower.Smoothness}[:dim]
	upper := []float64{math.Log(o.Upper.Variance), math.Log(o.Upper.Range), o.Upper.Smoothness}[:dim]
	start := []float64{math.Log(o.Start.Variance), math.Log(o.Start.Range), o.Start.Smoothness}[:dim]

	var lastErr error
	obj := func(x []float64) float64 {
		lik, err := s.be.LogLikelihood(toTheta(x))
		if err != nil {
			lastErr = err
			return math.Inf(1)
		}
		return -lik.Value
	}
	ck, err := openCheckpoint(o, s.fitDigest(o))
	if err != nil {
		return FitResult{}, err
	}
	if ck != nil {
		obj = ck.wrap(obj)
	}
	res, err := optimize.NelderMead(
		optimize.Problem{Objective: obj, Lower: lower, Upper: upper},
		start,
		optimize.Options{MaxEvals: o.MaxEvals, TolX: o.TolX},
	)
	if err != nil {
		return FitResult{}, err
	}
	if err := ck.flush(); err != nil {
		return FitResult{}, err
	}
	if math.IsInf(res.F, 1) {
		return FitResult{}, fmt.Errorf("core: every likelihood evaluation failed: %w", lastErr)
	}
	return FitResult{
		Theta:     toTheta(res.X),
		LogL:      -res.F,
		Evals:     res.Evals,
		Converged: res.Converged,
	}, nil
}

// profiledFit is Fit's concentrated-likelihood branch. The caller holds the
// write lock and has already applied the option defaults.
func (s *Session) profiledFit(o FitOptions) (FitResult, error) {
	dim := 2
	if o.FixSmoothness {
		dim = 1
	}
	lower := []float64{math.Log(o.Lower.Range), o.Lower.Smoothness}[:dim]
	upper := []float64{math.Log(o.Upper.Range), o.Upper.Smoothness}[:dim]
	start := []float64{math.Log(o.Start.Range), o.Start.Smoothness}[:dim]

	smoothOf := func(x []float64) float64 {
		if o.FixSmoothness {
			return o.Start.Smoothness
		}
		return x[1]
	}
	var lastErr error
	obj := func(x []float64) float64 {
		ll, _, err := s.be.ProfiledLogLikelihood(math.Exp(x[0]), smoothOf(x))
		if err != nil {
			lastErr = err
			return math.Inf(1)
		}
		return -ll
	}
	ck, err := openCheckpoint(o, s.fitDigest(o))
	if err != nil {
		return FitResult{}, err
	}
	if ck != nil {
		obj = ck.wrap(obj)
	}
	res, err := optimize.NelderMead(
		optimize.Problem{Objective: obj, Lower: lower, Upper: upper},
		start,
		optimize.Options{MaxEvals: o.MaxEvals, TolX: o.TolX},
	)
	if err != nil {
		return FitResult{}, err
	}
	if err := ck.flush(); err != nil {
		return FitResult{}, err
	}
	if math.IsInf(res.F, 1) {
		return FitResult{}, fmt.Errorf("core: every profiled evaluation failed: %w", lastErr)
	}
	rangeHat := math.Exp(res.X[0])
	smoothHat := smoothOf(res.X)
	ll, varHat, err := s.be.ProfiledLogLikelihood(rangeHat, smoothHat)
	if err != nil {
		return FitResult{}, err
	}
	return FitResult{
		Theta:     cov.Params{Variance: varHat, Range: rangeHat, Smoothness: smoothHat},
		LogL:      ll,
		Evals:     res.Evals + 1,
		Converged: res.Converged,
	}, nil
}

// Predict imputes measurements at newPts from the fitted model (paper
// eq. 4): Ẑ₁ = Σ₁₂ Σ₂₂⁻¹ Z₂. The solve vector y = Σ₂₂⁻¹ Z₂ depends only on
// (θ, nugget), not on newPts, so it is cached on the session: after the
// first prediction at a θ, every further Predict at that θ is O(m·n) —
// cross-covariance assembly and dot products, no factorization — and runs
// concurrently with the other predicts at that θ, on every backend.
func (s *Session) Predict(newPts []geom.Point, theta cov.Params) ([]float64, error) {
	if err := theta.Validate(); err != nil {
		return nil, err
	}
	if len(newPts) == 0 {
		return nil, nil
	}
	p := s.p
	k := cov.NewKernel(theta)
	y, unlock, err := s.lockSolveVector(k, theta, s.cfg.nugget(theta.Variance))
	if err != nil {
		return nil, err
	}
	defer unlock()

	// Ẑ1 = Σ12 · y, assembled one row at a time to bound memory.
	n := p.N()
	out := make([]float64, len(newPts))
	cross := la.NewMat(1, n)
	for i := range newPts {
		k.Block(cross, newPts[i:i+1], p.Points, p.Metric)
		out[i] = la.Dot(cross.Row(0), y)
	}
	return out, nil
}

// lockSolveVector returns the kriging weights y = Σ₂₂⁻¹·Z₂ for (θ, nugget)
// with the lock that protects them held — the read lock when the cache has
// them, the write lock when they had to be computed — and its unlock. The
// slice is owned by the cache; callers must not modify it.
func (s *Session) lockSolveVector(k *cov.Kernel, theta cov.Params, nugget float64) (y []float64, unlock func(), err error) {
	s.mu.RLock()
	if s.pred.at(theta, nugget) && s.pred.yFull != nil {
		cntPredictCacheHit.Inc()
		return s.pred.yFull, s.mu.RUnlock, nil
	}
	s.mu.RUnlock()

	s.mu.Lock()
	if y, err = s.solveVector(k, theta, nugget); err != nil {
		s.mu.Unlock()
		return nil, nil, err
	}
	return y, s.mu.Unlock, nil
}

// solveVector computes and caches y = Σ₂₂⁻¹·Z₂ for (θ, nugget). The caller
// holds the write lock.
func (s *Session) solveVector(k *cov.Kernel, theta cov.Params, nugget float64) ([]float64, error) {
	if s.pred.at(theta, nugget) && s.pred.yFull != nil {
		// Another goroutine filled the cache between the two locks.
		cntPredictCacheHit.Inc()
		return s.pred.yFull, nil
	}
	y := append([]float64(nil), s.p.Z...)
	fb, ok := s.be.(FactorBackend)
	if !ok {
		// No shareable factor (distributed backend): solve through the
		// backend and cache only the weights.
		cntPredictCacheMiss.Inc()
		if err := s.be.SolveVec(k, nugget, y); err != nil {
			return nil, err
		}
		s.pred = predictCache{theta: theta, nugget: nugget, yFull: y}
		return y, nil
	}
	// A live factor from PredictWithVariance at the same key still saves the
	// factorization: only the solve runs.
	f, err := s.factor(fb, k, theta, nugget)
	if err != nil {
		return nil, err
	}
	f.Solve(y)
	s.pred.yFull = y
	return y, nil
}

// factor returns the factorization for (θ, nugget), the cached one when it
// is live, and leaves the cache keyed to (θ, nugget). The caller holds the
// write lock.
func (s *Session) factor(fb FactorBackend, k *cov.Kernel, theta cov.Params, nugget float64) (Factor, error) {
	if s.pred.at(theta, nugget) && s.pred.factor != nil {
		cntPredictCacheHit.Inc()
		return s.pred.factor, nil
	}
	cntPredictCacheMiss.Inc()
	s.pred.factor = nil // Factorize overwrites the buffers it aliases
	f, err := fb.Factorize(k, nugget)
	if err != nil {
		return nil, err
	}
	if !s.pred.at(theta, nugget) {
		s.pred = predictCache{theta: theta, nugget: nugget}
	}
	s.pred.factor = f
	return f, nil
}

// PredictWithVariance computes the conditional mean AND variance at newPts
// (paper eq. 3):
//
//	W = L⁻¹·Σ₂₁,  y = L⁻¹·Z₂,
//	mean_i = W[:,i]ᵀ·y,   var_i = C(0) − ‖W[:,i]‖².
//
// W is never materialized whole: newPts is processed in TileSize-wide column
// blocks, so the scratch footprint is n×TileSize however many points are
// requested — the column-block counterpart of the row-at-a-time discipline
// Predict uses. The per-column arithmetic is identical to the one-shot n×m
// solve (forward substitution treats columns independently), so the results
// are bitwise-equal to the unchunked computation. Like Predict, the
// factorization is cached by (θ, nugget) on the shared-memory backends, where
// calls at a cached key run concurrently against the read-only factor; on
// the distributed backend every call factors, alone.
func (s *Session) PredictWithVariance(newPts []geom.Point, theta cov.Params) (Prediction, error) {
	if err := theta.Validate(); err != nil {
		return Prediction{}, err
	}
	if len(newPts) == 0 {
		return Prediction{}, nil
	}
	m := len(newPts)
	k := cov.NewKernel(theta)
	nugget := s.cfg.nugget(theta.Variance)
	chunk := s.cfg.TileSize

	pr := Prediction{Mean: make([]float64, m), Variance: make([]float64, m)}
	c0 := k.At(0)
	// accumulate consumes one solved column block starting at column col.
	accumulate := func(col int, w *la.Mat, y []float64) {
		n := w.Rows
		for j := 0; j < w.Cols; j++ {
			var mean, norm2 float64
			for r := 0; r < n; r++ {
				wi := w.At(r, j)
				mean += wi * y[r]
				norm2 += wi * wi
			}
			pr.Mean[col+j] = mean
			v := c0 - norm2
			if v < 0 {
				// clamp tiny negative values from approximation error
				v = 0
			}
			pr.Variance[col+j] = v
		}
	}

	fb, ok := s.be.(FactorBackend)
	if !ok {
		// No shareable factor (distributed backend): stream the column
		// blocks through the backend's own chunked half-solve.
		defer s.exclusive()()
		if err := s.be.HalfSolveChunked(k, nugget, newPts, chunk, s.p.Z, accumulate); err != nil {
			return Prediction{}, err
		}
		return pr, nil
	}

	f, yHalf, unlock, err := s.lockHalfState(fb, k, theta, nugget)
	if err != nil {
		return Prediction{}, err
	}
	defer unlock()
	n := s.p.N()
	for lo := 0; lo < m; lo += chunk {
		hi := min(lo+chunk, m)
		w := la.NewMat(n, hi-lo)
		k.Block(w, s.p.Points, newPts[lo:hi], s.p.Metric)
		f.HalfSolveMat(w)
		accumulate(lo, w, yHalf)
	}
	return pr, nil
}

// lockHalfState returns the factorization and half-solved rhs y = L⁻¹·Z₂
// for (θ, nugget) with the lock that protects them held — the read lock when
// the cache has both, the write lock otherwise — and its unlock.
func (s *Session) lockHalfState(fb FactorBackend, k *cov.Kernel, theta cov.Params, nugget float64) (f Factor, yHalf []float64, unlock func(), err error) {
	s.mu.RLock()
	if s.pred.at(theta, nugget) && s.pred.factor != nil && s.pred.yHalf != nil {
		cntPredictCacheHit.Inc()
		return s.pred.factor, s.pred.yHalf, s.mu.RUnlock, nil
	}
	s.mu.RUnlock()

	s.mu.Lock()
	if f, err = s.factor(fb, k, theta, nugget); err != nil {
		s.mu.Unlock()
		return nil, nil, nil, err
	}
	if s.pred.yHalf == nil {
		yHalf = append([]float64(nil), s.p.Z...)
		f.HalfSolve(yHalf)
		s.pred.yHalf = yHalf
	}
	return f, s.pred.yHalf, s.mu.Unlock, nil
}
