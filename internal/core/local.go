package core

import (
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/chaos"
	"repro/internal/cov"
	"repro/internal/geom"
	"repro/internal/la"
	"repro/internal/obs"
	"repro/internal/runtime"
)

// Degradation counters: factorization attempts that failed, and how many of
// those were answered by escalating the nugget rather than giving up.
var (
	cntFactorFail      = obs.GetCounter("core.factor.fail")
	cntNuggetEscalated = obs.GetCounter("core.nugget.escalated")
)

// cntFactorRuns counts actual factorization executions (assembly + Cholesky)
// across all backends. The serving regression "predict-many after fit-once
// factors exactly once" is asserted against this counter.
var cntFactorRuns = obs.GetCounter("core.factor.runs")

// maxNuggetEscalations bounds the diagonal-regularization ladder: after this
// many ×NuggetEscalation steps a breakdown is reported, not papered over.
const maxNuggetEscalations = 3

// retryableError is the RetryPolicy filter shared by all backends: a
// non-positive-definite pivot is a property of θ, not of the execution, so
// replaying the task cannot help — everything else (injected panics, real
// transients) is worth a restore-and-retry.
func retryableError(err error) bool {
	return !errors.Is(err, la.ErrNotPositiveDefinite)
}

// modeFactorizer is what a shared-memory mode contributes to localBackend:
// one assemble-and-factor execution at a fixed nugget, reusing whatever
// per-problem state the mode caches on itself (Σ buffers, tile shells, task
// graphs). Everything else — the escalation ladder, likelihood formulas,
// solve/halve-solve plumbing, tracing, diagnostics — is mode-independent and
// lives on localBackend.
type modeFactorizer interface {
	factorizeOnce(e *localBackend, k *cov.Kernel, nugget float64) (Factor, error)
}

// localBackend is the shared-memory Backend scaffolding: it owns the
// per-problem caches one likelihood evaluation needs so the optimizer's
// dozens of evaluations inside Fit reuse them instead of reallocating per
// iteration. The mode-specific state (what exactly is cached and how Σ is
// assembled and factored) is delegated to the embedded modeFactorizer; see
// backend_dense.go / backend_tile.go / backend_tlr.go / backend_hodlr.go for
// the four registrations.
//
// A localBackend is NOT safe for concurrent use — Session's write lock
// serializes its methods. The factor returned by one evaluation aliases
// cached buffers and is overwritten by the next one; until then it is
// read-only, and its HalfSolveMat may run from any number of goroutines.
type localBackend struct {
	p   *Problem
	cfg Config
	inj *chaos.Injector // nil unless Config.Chaos is set

	fac modeFactorizer

	// Graceful-degradation bookkeeping (read by Session.Metrics and copied
	// into LikResult diagnostics).
	diag Diagnostics

	y []float64 // rhs scratch

	// trace switches graph executions to ExecuteTraced; lastTrace keeps the
	// most recent execution's trace for Session.Metrics. FullBlock has no
	// task graph, so lastTrace stays nil in that mode.
	trace     bool
	lastTrace *runtime.Trace
}

// newLocalBackend wraps a mode's factorizer in the shared scaffolding.
func newLocalBackend(p *Problem, cfg Config, inj *chaos.Injector, fac modeFactorizer) *localBackend {
	return &localBackend{p: p, cfg: cfg.withDefaults(), inj: inj, fac: fac}
}

func (e *localBackend) Mode() Mode               { return e.cfg.Mode }
func (e *localBackend) Diagnostics() Diagnostics { return e.diag }
func (e *localBackend) EnableTracing()           { e.trace = true }
func (e *localBackend) Trace() *runtime.Trace    { return e.lastTrace }

// Close releases whatever the mode state holds outside the Go heap (the TLR
// out-of-core spill file); modes without external resources make it a no-op.
func (e *localBackend) Close() error {
	if c, ok := e.fac.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// storeStater is the optional capability of mode states that run against an
// out-of-core tile store (currently only tlrState with MemBudget > 0).
type storeStater interface {
	storeStats() (highWater, spilled int64, ok bool)
}

func (e *localBackend) storeStats() (int64, int64, bool) {
	if ss, ok := e.fac.(storeStater); ok {
		return ss.storeStats()
	}
	return 0, 0, false
}

// run executes a cached task graph, recording a trace when enabled. The
// options carry the session's retry policy and (when chaos is armed) the
// fault-injection hook.
func (e *localBackend) run(g *runtime.Graph) error {
	opt := runtime.ExecOptions{
		Workers: e.cfg.Workers,
		Retry: runtime.RetryPolicy{
			Attempts:  e.cfg.MaxRetries,
			Retryable: retryableError,
		},
	}
	if e.inj != nil {
		opt.Inject = e.inj.TaskHook
	}
	if !e.trace {
		return g.Execute(opt)
	}
	tr, err := g.ExecuteTraced(opt)
	e.lastTrace = tr
	return err
}

// Factorize assembles and factors Σ, escalating the nugget geometrically on
// Cholesky breakdowns: a non-positive-definite pivot retries with the
// diagonal regularization multiplied by Config.NuggetEscalation, up to
// maxNuggetEscalations times, before the failure is surfaced. The nugget
// actually used and the retry count land in the backend's diagnostics.
func (e *localBackend) Factorize(k *cov.Kernel, nugget float64) (Factor, error) {
	cur := nugget
	for attempt := 0; ; attempt++ {
		cntFactorRuns.Inc()
		f, err := e.fac.factorizeOnce(e, k, cur)
		if err == nil {
			e.diag.LastNugget, e.diag.LastRetries = cur, attempt
			return f, nil
		}
		cntFactorFail.Inc()
		e.diag.FactorFailures++
		e.diag.LastFailure = err.Error()
		if !errors.Is(err, la.ErrNotPositiveDefinite) || attempt >= maxNuggetEscalations {
			return nil, err
		}
		cur *= e.cfg.NuggetEscalation
		cntNuggetEscalated.Inc()
		e.diag.NuggetEscalations++
	}
}

// halfSolved factors Σ and returns the factor plus L⁻¹Z in the cached
// scratch vector.
func (e *localBackend) halfSolved(k *cov.Kernel, nugget float64) (Factor, []float64, error) {
	f, err := e.Factorize(k, nugget)
	if err != nil {
		return nil, nil, err
	}
	if e.y == nil {
		e.y = make([]float64, e.p.N())
	}
	copy(e.y, e.p.Z)
	f.HalfSolve(e.y)
	return f, e.y, nil
}

// LogLikelihood evaluates ℓ(θ) (paper eq. 1) reusing cached buffers.
func (e *localBackend) LogLikelihood(theta cov.Params) (LikResult, error) {
	if err := theta.Validate(); err != nil {
		return LikResult{}, err
	}
	f, y, err := e.halfSolved(cov.NewKernel(theta), e.cfg.nugget(theta.Variance))
	if err != nil {
		return LikResult{}, err
	}
	var res LikResult
	res.Bytes = f.Bytes()
	res.MaxRank, res.MeanRank = f.RankStats()
	res.NuggetUsed, res.NuggetRetries = e.diag.LastNugget, e.diag.LastRetries
	res.LogDet = f.LogDet()
	res.QuadForm = la.Dot(y, y)
	n := float64(e.p.N())
	res.Value = -0.5*n*math.Log(2*math.Pi) - 0.5*res.LogDet - 0.5*res.QuadForm
	return res, nil
}

// ProfiledLogLikelihood evaluates the concentrated likelihood ℓ_p(θ₂, θ₃)
// (see the package-level ProfiledLogLikelihood) reusing cached buffers.
func (e *localBackend) ProfiledLogLikelihood(rangeP, smoothness float64) (logL, varianceHat float64, err error) {
	theta := cov.Params{Variance: 1, Range: rangeP, Smoothness: smoothness}
	if err := theta.Validate(); err != nil {
		return 0, 0, err
	}
	f, y, err := e.halfSolved(cov.NewKernel(theta), e.cfg.nugget(1))
	if err != nil {
		return 0, 0, err
	}
	n := float64(e.p.N())
	varianceHat = la.Dot(y, y) / n
	if varianceHat <= 0 {
		return 0, 0, fmt.Errorf("core: degenerate profiled variance %g", varianceHat)
	}
	logL = -0.5*n*(math.Log(2*math.Pi)+1+math.Log(varianceHat)) - 0.5*f.LogDet()
	return logL, varianceHat, nil
}

// SolveVec overwrites b with Σ⁻¹·b, factoring as needed.
func (e *localBackend) SolveVec(k *cov.Kernel, nugget float64, b []float64) error {
	f, err := e.Factorize(k, nugget)
	if err != nil {
		return err
	}
	f.Solve(b)
	return nil
}

// HalfSolveChunked factors once and walks newPts in chunk-wide column blocks
// (see Backend). Session uses the FactorBackend capability instead so it can
// cache the factor across calls; this path serves direct Backend users.
func (e *localBackend) HalfSolveChunked(k *cov.Kernel, nugget float64, newPts []geom.Point, chunk int, y []float64, visit func(col int, w *la.Mat, y []float64)) error {
	f, err := e.Factorize(k, nugget)
	if err != nil {
		return err
	}
	yr := append([]float64(nil), y...)
	f.HalfSolve(yr)
	n := e.p.N()
	m := len(newPts)
	for lo := 0; lo < m; lo += chunk {
		hi := min(lo+chunk, m)
		w := la.NewMat(n, hi-lo)
		k.Block(w, e.p.Points, newPts[lo:hi], e.p.Metric)
		f.HalfSolveMat(w)
		visit(lo, w, yr)
	}
	return nil
}
