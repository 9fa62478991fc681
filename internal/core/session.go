package core

import (
	"fmt"
	"io"
	"math"
	"slices"
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
// Everything that runs the evaluator — a predict at a key that is not
// cached, LogLikelihood, ProfiledLogLikelihood, Fit, every solve on ranks —
// holds the write lock, and drops the cached factor first, because the
// evaluator factors into the buffers that factor aliases. The cached solve
// vectors are private copies and survive; the next variance predict at that
// key factors again.
type Session struct {
	p   *Problem
	cfg Config // validated and normalized

	// ev computes every likelihood and factorization; Session adds the lock
	// and the (θ, nugget)-keyed predict cache on top.
	ev *evaluator

	// keepFactor is the modes table's verdict on the way ev factors: the
	// factor may stay in pred across calls and be shared under the read lock.
	keepFactor bool

	// mu guards ev and pred: read-held by predicts served from pred,
	// write-held by everything that runs ev or changes pred.
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
// evaluator's cached buffers and is set to nil before the evaluator runs
// again.
type predictCache struct {
	theta  cov.Params
	nugget float64

	yFull []float64 // Σ₂₂⁻¹·Z₂ (Predict's weights)
	yHalf []float64 // L⁻¹·Z₂ (PredictWithVariance's half-solved rhs)

	factor Factor // nil unless Session.keepFactor
}

func (c *predictCache) at(theta cov.Params, nugget float64) bool {
	return c.theta == theta && c.nugget == nugget
}

// NewSession validates cfg, normalizes its zero fields to the documented
// defaults, and builds the evaluator the configuration selects. The returned
// Session is ready for repeated Fit/LogLikelihood/Predict calls.
func NewSession(p *Problem, cfg Config) (*Session, error) {
	if p == nil || p.N() == 0 {
		return nil, fmt.Errorf("core: nil or empty problem")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.normalized()
	if cfg.Ordering != "" {
		// Evaluate on a session-private reordered copy when the ordering
		// moves a point. The caller's Problem is untouched, and the copy's
		// Perm still maps back to caller order.
		ord, err := geom.NewOrdering(cfg.Ordering, cfg.TileSize)
		if err != nil {
			return nil, err // unreachable after Validate; kept for safety
		}
		p = p.Reordered(ord)
	}
	row, err := lookupMode(cfg.Mode, cfg.Ranks)
	if err != nil {
		return nil, err // unreachable after Validate; kept for safety
	}
	ev := &evaluator{p: p, cfg: cfg}
	if cfg.Chaos != nil {
		ev.inj = chaos.NewInjector(cfg.Chaos)
	}
	if ev.fac, err = row.new(ev); err != nil {
		return nil, err
	}
	return &Session{p: p, cfg: cfg, ev: ev, keepFactor: row.keep}, nil
}

// Close releases resources the session holds outside the Go heap — today
// that is the TLR out-of-core spill file (Config.MemBudget > 0). Safe to
// call on every mode (a no-op without external resources) and idempotent. It
// waits for the calls in flight; the session must not be used afterwards.
func (s *Session) Close() error {
	defer s.exclusive()()
	if c, ok := s.ev.fac.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// StoreStats reports the out-of-core spill cache's peak resident tile bytes
// and current spill-file size. ok is false when the session runs in memory
// (MemBudget == 0) or no factorization has happened yet.
func (s *Session) StoreStats() (highWater, spilled int64, ok bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if st, isTLR := s.ev.fac.(*tlrState); isTLR {
		return st.storeStats()
	}
	return 0, 0, false
}

// ChaosStats reports the faults the session's injector has raised so far
// (the zero Stats when Config.Chaos is nil).
func (s *Session) ChaosStats() chaos.Stats {
	if s.ev.inj == nil {
		return chaos.Stats{}
	}
	return s.ev.inj.Stats()
}

// Config returns the session's normalized configuration (defaults resolved).
func (s *Session) Config() Config { return s.cfg }

// Problem returns the dataset the session operates on. When the session's
// ordering (Config.Ordering, resolved by mode) would move a point of the
// Problem passed to NewSession, this is the session-private reordered copy
// (its Perm maps back to caller order), not that Problem.
func (s *Session) Problem() *Problem { return s.p }

// exclusive takes the write lock for a call that runs the evaluator and
// drops the cached factor, whose buffers that run overwrites. It returns the
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
	return s.ev.LogLikelihood(theta)
}

// ProfiledLogLikelihood evaluates the profile (concentrated) log-likelihood,
// the variance θ₁ maximized out analytically. Writing Σ(θ) = θ₁·R(θ₂, θ₃)
// with R the correlation matrix, the maximizing variance for fixed (θ₂, θ₃)
// is
//
//	θ̂₁ = Zᵀ R⁻¹ Z / n,
//
// and the profile log-likelihood becomes
//
//	ℓ_p(θ₂, θ₃) = −n/2·(log 2π + 1 + log θ̂₁) − 1/2·log|R|.
//
// It returns ℓ_p and θ̂₁; Fit maximizes it.
func (s *Session) ProfiledLogLikelihood(rangeP, smoothness float64) (logL, varianceHat float64, err error) {
	defer s.exclusive()()
	return s.ev.ProfiledLogLikelihood(rangeP, smoothness)
}

// Fit estimates θ̂ by maximum likelihood with the derivative-free optimizer.
// θ₁ is concentrated out (see ProfiledLogLikelihood), so the search runs over
// (log θ₂, θ₃), or log θ₂ alone under FixSmoothness, and reaches the MLE of
// ℓ(θ) in two dimensions instead of three — the concentrated-likelihood trick
// ExaGeoStat's drivers use too. Every objective call reuses the session's
// cached factorization state, and the whole search holds the write lock.
//
// The fit factors θ̂₁·(R + τ²I). The default nugget is τ² = 1e-9, and then
// that matrix is exactly Σ(θ̂) with its default nugget 1e-9·θ̂₁, so
// LogLikelihood(θ̂) is the reported LogL. An explicit Config.Nugget is τ²:
// the fit applies it on the correlation scale, not to Σ.
func (s *Session) Fit(opts FitOptions) (FitResult, error) {
	defer s.exclusive()()
	o := opts.withDefaults()

	// The search vector is (log θ₂, θ₃), without θ₃ when it is pinned.
	toX := func(t cov.Params) []float64 {
		if o.FixSmoothness {
			return []float64{math.Log(t.Range)}
		}
		return []float64{math.Log(t.Range), t.Smoothness}
	}
	// likelihood evaluates ℓ_p at θ(x) and fills in θ̂₁.
	likelihood := func(x []float64) (cov.Params, float64, error) {
		t := cov.Params{Range: math.Exp(x[0]), Smoothness: o.Start.Smoothness}
		if !o.FixSmoothness {
			t.Smoothness = x[1]
		}
		ll, varHat, err := s.ev.ProfiledLogLikelihood(t.Range, t.Smoothness)
		t.Variance = varHat
		return t, ll, err
	}

	// The objective keeps θ(x), θ̂₁ included, at the best point it
	// evaluates, so the result needs no evaluation of its own unless the
	// optimum was replayed from a checkpoint, which logs ℓ alone.
	var (
		lastErr error
		bestX   []float64
		best    cov.Params
		bestLL  float64
	)
	obj := func(x []float64) float64 {
		t, ll, err := likelihood(x)
		if err != nil {
			lastErr = err
			return math.Inf(1)
		}
		if !math.IsNaN(ll) && (bestX == nil || ll > bestLL) {
			bestX, best, bestLL = append(bestX[:0], x...), t, ll
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
		optimize.Problem{Objective: obj, Lower: toX(o.Lower), Upper: toX(o.Upper)},
		toX(o.Start),
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
	out := FitResult{Theta: best, LogL: bestLL, Evals: res.Evals, Converged: res.Converged}
	if !slices.Equal(bestX, res.X) {
		// The search never saw θ₁: one more evaluation, at the replayed
		// optimum, recovers θ̂₁.
		if out.Theta, out.LogL, err = likelihood(res.X); err != nil {
			return FitResult{}, err
		}
	}
	return out, nil
}

// Predict imputes measurements at newPts from the fitted model (paper
// eq. 4): Ẑ₁ = Σ₁₂ Σ₂₂⁻¹ Z₂. The solve vector y = Σ₂₂⁻¹ Z₂ depends only on
// (θ, nugget), not on newPts, so it is cached on the session: after the
// first prediction at a θ, every further Predict at that θ is O(m·n) —
// cross-covariance assembly and dot products, no factorization — and runs
// concurrently with the other predicts at that θ, however Σ is factored.
func (s *Session) Predict(newPts []geom.Point, theta cov.Params) ([]float64, error) {
	if err := theta.Validate(); err != nil {
		return nil, err
	}
	if err := finitePoints("prediction", newPts); err != nil {
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

// Warm computes and caches what predictions at θ reuse — the kriging
// weights and, where the session may keep a factor, the factor and the
// half-solved observations — so the factorization is paid now rather than by
// the first prediction, and every predict after it only reads. (A request
// that has to fill either half holds the session alone for its whole batch.)
func (s *Session) Warm(theta cov.Params) error {
	one := s.p.Points[:1]
	if _, err := s.Predict(one, theta); err != nil || !s.keepFactor {
		return err
	}
	_, err := s.PredictWithVariance(one, theta)
	return err
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
	if s.pred.at(theta, nugget) && s.pred.yFull != nil {
		// Another goroutine filled the cache between the two locks.
		cntPredictCacheHit.Inc()
		return s.pred.yFull, s.mu.Unlock, nil
	}
	// A live factor from PredictWithVariance at the same key still saves the
	// factorization: only the solve runs.
	err = s.withFactor(k, theta, nugget, func(f Factor) error {
		y = append(y[:0], s.p.Z...)
		return f.Solve(la.NewMatFrom(len(y), 1, y))
	})
	if err != nil {
		s.mu.Unlock()
		return nil, nil, err
	}
	s.pred.yFull = y
	return y, s.mu.Unlock, nil
}

// withFactor runs use against the factorization for (θ, nugget) — the cached
// one when it is live, otherwise a new one under the evaluator's recovery
// rule, which may run use more than once — and on success leaves the cache
// keyed to (θ, nugget), holding the factor if the session may keep one. The
// caller holds the write lock.
func (s *Session) withFactor(k *cov.Kernel, theta cov.Params, nugget float64, use func(Factor) error) error {
	if s.pred.at(theta, nugget) && s.pred.factor != nil {
		cntPredictCacheHit.Inc()
		return use(s.pred.factor)
	}
	cntPredictCacheMiss.Inc()
	s.pred.factor = nil // the evaluator overwrites the buffers it aliases
	var last Factor
	err := s.ev.withFactor(k, nugget, func(f Factor) error {
		last = f
		return use(f)
	})
	if err != nil {
		return err
	}
	if !s.pred.at(theta, nugget) {
		s.pred = predictCache{theta: theta, nugget: nugget}
	}
	if s.keepFactor {
		s.pred.factor = last
	}
	return nil
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
// factorization is cached by (θ, nugget) where the session may keep one, and
// calls at a cached key run concurrently against the read-only factor; on
// ranks every call factors, alone.
func (s *Session) PredictWithVariance(newPts []geom.Point, theta cov.Params) (Prediction, error) {
	if err := theta.Validate(); err != nil {
		return Prediction{}, err
	}
	if err := finitePoints("prediction", newPts); err != nil {
		return Prediction{}, err
	}
	if len(newPts) == 0 {
		return Prediction{}, nil
	}
	n, m := s.p.N(), len(newPts)
	k := cov.NewKernel(theta)
	nugget := s.cfg.nugget(theta.Variance)
	chunk := s.cfg.TileSize

	pr := Prediction{Mean: make([]float64, m), Variance: make([]float64, m)}
	c0 := k.At(0)
	// blocks half-solves Σ₂₁ against f one column block at a time and
	// reduces each block against y = L⁻¹·Z₂.
	blocks := func(f Factor, y []float64) error {
		for lo := 0; lo < m; lo += chunk {
			hi := min(lo+chunk, m)
			w := la.NewMat(n, hi-lo)
			k.Block(w, s.p.Points, newPts[lo:hi], s.p.Metric)
			if err := f.HalfSolve(w); err != nil {
				return err
			}
			// One pass over the row-major block with an accumulator per
			// column (cleared first: a replayed attempt runs this again);
			// each column still sums its rows in ascending order.
			mean, norm2 := pr.Mean[lo:hi], pr.Variance[lo:hi]
			clear(mean)
			clear(norm2)
			for r := 0; r < n; r++ {
				yr := y[r]
				for j, wi := range w.Row(r) {
					mean[j] += wi * yr
					norm2[j] += wi * wi
				}
			}
			for j, v := range norm2 {
				// clamp tiny negative values from approximation error
				norm2[j] = max(c0-v, 0)
			}
		}
		return nil
	}

	s.mu.RLock()
	if s.pred.at(theta, nugget) && s.pred.factor != nil && s.pred.yHalf != nil {
		cntPredictCacheHit.Inc()
		defer s.mu.RUnlock()
		if err := blocks(s.pred.factor, s.pred.yHalf); err != nil {
			return Prediction{}, err
		}
		return pr, nil
	}
	s.mu.RUnlock()

	s.mu.Lock()
	defer s.mu.Unlock()
	var cached, yHalf []float64
	if s.pred.at(theta, nugget) {
		cached = s.pred.yHalf
	}
	err := s.withFactor(k, theta, nugget, func(f Factor) error {
		if yHalf = cached; yHalf == nil {
			yHalf = append([]float64(nil), s.p.Z...)
			if err := f.HalfSolve(la.NewMatFrom(n, 1, yHalf)); err != nil {
				return err
			}
		}
		return blocks(f, yHalf)
	})
	if err != nil {
		return Prediction{}, err
	}
	s.pred.yHalf = yHalf
	return pr, nil
}
