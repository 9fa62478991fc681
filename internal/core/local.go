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
	"repro/internal/runtime"
)

// modeFactorizer is what a shared-memory mode contributes to localBackend:
// one assemble-and-factor execution at a fixed nugget, reusing whatever
// per-problem state the mode caches on itself (Σ buffers, tile shells, task
// graphs). Everything else — recovery (recoverLoop), likelihood formulas,
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
	return &localBackend{p: p, cfg: cfg.normalized(), inj: inj, fac: fac}
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

// run executes a cached task graph, recording a trace when enabled and
// (when chaos is armed) installing the fault-injection hook.
func (e *localBackend) run(g *runtime.Graph) error {
	opt := runtime.ExecOptions{Workers: e.cfg.Workers}
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

// taskPanicked is the shared-memory replayable verdict for recoverLoop: a
// task of the graph panicked, so executing the graph again — which
// regenerates every tile — repairs it.
func taskPanicked(err error) bool {
	var tp *runtime.TaskPanic
	return errors.As(err, &tp)
}

// Factorize assembles and factors Σ under the recovery rule (recoverLoop).
// The nugget actually used and the escalations it took land in the backend's
// diagnostics.
func (e *localBackend) Factorize(k *cov.Kernel, nugget float64) (Factor, error) {
	var f Factor
	err := recoverLoop(e.cfg.MaxRetries, &e.diag, nugget, func(cur float64) (err error) {
		f, err = e.fac.factorizeOnce(e, k, cur)
		return err
	}, taskPanicked)
	return f, err
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
