package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/chaos"
	"repro/internal/cov"
	"repro/internal/la"
	"repro/internal/runtime"
)

// factorizer is what a row of the modes table contributes to the evaluator:
// one generate-and-factor execution at a fixed nugget, reusing whatever
// per-problem state the row caches on itself (Σ buffers, tile shells, task
// graphs, a World and its shards), and the verdict on what a failed
// execution of its kind needs. Everything else — recovery (recoverLoop),
// the likelihood formulas, tracing, diagnostics — is the evaluator's.
type factorizer interface {
	factorizeOnce(e *evaluator, k *cov.Kernel, nugget float64) (Factor, error)
	// replayable reports whether err is a fault of the execution that
	// running the attempt again repairs (recoverLoop's replayable), and
	// prepares that re-run.
	replayable(err error) bool
}

// diagnostics is the graceful-degradation bookkeeping of an evaluator: how
// the most recent successful factorization was obtained and how often the
// session has had to degrade to get one.
type diagnostics struct {
	// LastNugget is the diagonal nugget the most recent successful
	// factorization ran with; LastRetries counts the escalations it took.
	LastNugget  float64
	LastRetries int
	// FactorFailures counts failed factorization attempts (a replayed fault
	// is not one); NuggetEscalations how many were answered by growing the
	// nugget. LastFailure is the most recent failure's message, empty if
	// none.
	FactorFailures    int64
	NuggetEscalations int64
	LastFailure       string
	// Replays counts the evaluations re-run from generation after a task
	// panic or a rank death (see Config.MaxRetries).
	Replays int64
}

// evaluator is the one place a likelihood is computed: it owns the
// per-problem caches an evaluation needs, so the optimizer's dozens of
// evaluations inside Fit reuse them instead of reallocating per iteration,
// and runs every use of a factorization through the recovery rule. How Σ is
// assembled and factored, and what is cached for it, is the factorizer's.
//
// An evaluator is NOT safe for concurrent use — Session's write lock
// serializes its methods. The factor one evaluation produces is overwritten
// by the next.
type evaluator struct {
	p   *Problem
	cfg Config          // validated and normalized
	inj *chaos.Injector // nil unless Config.Chaos is set

	fac  factorizer
	diag diagnostics

	y []float64 // rhs scratch

	// trace switches graph executions to ExecuteTraced; lastTrace keeps the
	// most recent execution's trace for Session.Metrics. FullBlock and the
	// ranks execute no task graph here, so lastTrace stays nil in those modes.
	trace     bool
	lastTrace *runtime.Trace
}

// run executes a cached task graph, recording a trace when enabled and
// (when chaos is armed) installing the fault-injection hook.
func (e *evaluator) run(g *runtime.Graph) error {
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

// taskGraph is the replayable verdict of the factorizers that execute a task
// graph in this address space: a task of the graph panicked, so executing
// the graph again — which regenerates every tile — repairs it.
type taskGraph struct{}

func (taskGraph) replayable(err error) bool {
	var tp *runtime.TaskPanic
	return errors.As(err, &tp)
}

// withFactor assembles and factors Σ for (k, nugget) and hands the factor to
// use, all under the recovery rule (recoverLoop): a failure of use — on
// ranks, a death during a solve — fails the attempt like a failure to
// factor, and use runs again on the replay's factor. The nugget actually
// used and the escalations it took land in the diagnostics.
func (e *evaluator) withFactor(k *cov.Kernel, nugget float64, use func(Factor) error) error {
	return recoverLoop(e.cfg.MaxRetries, &e.diag, nugget, func(cur float64) error {
		f, err := e.fac.factorizeOnce(e, k, cur)
		if err != nil {
			return err
		}
		return use(f)
	}, e.fac.replayable)
}

// evaluate factors Σ and returns what both likelihoods are made of —
// log|Σ| and ZᵀΣ⁻¹Z = ‖L⁻¹Z‖² — with the factor's storage statistics.
func (e *evaluator) evaluate(k *cov.Kernel, nugget float64) (LikResult, error) {
	if e.y == nil {
		e.y = make([]float64, e.p.N())
	}
	var res LikResult
	err := e.withFactor(k, nugget, func(f Factor) (err error) {
		copy(e.y, e.p.Z)
		if err = f.HalfSolve(la.NewMatFrom(len(e.y), 1, e.y)); err != nil {
			return err
		}
		if res.LogDet, err = f.LogDet(); err != nil {
			return err
		}
		res.QuadForm = la.Dot(e.y, e.y)
		res.Bytes = f.Bytes()
		res.MaxRank, res.MeanRank = f.RankStats()
		return nil
	})
	res.NuggetUsed, res.NuggetRetries = e.diag.LastNugget, e.diag.LastRetries
	return res, err
}

// LogLikelihood evaluates ℓ(θ) (paper eq. 1) reusing cached buffers.
func (e *evaluator) LogLikelihood(theta cov.Params) (LikResult, error) {
	if err := theta.Validate(); err != nil {
		return LikResult{}, err
	}
	res, err := e.evaluate(cov.NewKernel(theta), e.cfg.nugget(theta.Variance))
	if err != nil {
		return LikResult{}, err
	}
	n := float64(e.p.N())
	res.Value = -0.5*n*math.Log(2*math.Pi) - 0.5*res.LogDet - 0.5*res.QuadForm
	return res, nil
}

// ProfiledLogLikelihood evaluates the concentrated likelihood ℓ_p(θ₂, θ₃)
// (see Session.ProfiledLogLikelihood) reusing cached buffers.
func (e *evaluator) ProfiledLogLikelihood(rangeP, smoothness float64) (logL, varianceHat float64, err error) {
	theta := cov.Params{Variance: 1, Range: rangeP, Smoothness: smoothness}
	if err := theta.Validate(); err != nil {
		return 0, 0, err
	}
	res, err := e.evaluate(cov.NewKernel(theta), e.cfg.nugget(1))
	if err != nil {
		return 0, 0, err
	}
	n := float64(e.p.N())
	varianceHat = res.QuadForm / n
	if varianceHat <= 0 {
		return 0, 0, fmt.Errorf("core: degenerate profiled variance %g", varianceHat)
	}
	logL = -0.5*n*(math.Log(2*math.Pi)+1+math.Log(varianceHat)) - 0.5*res.LogDet
	return logL, varianceHat, nil
}
