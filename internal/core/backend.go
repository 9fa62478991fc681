package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/chaos"
	"repro/internal/cov"
	"repro/internal/geom"
	"repro/internal/la"
	"repro/internal/mpi"
	"repro/internal/runtime"
)

// Backend is the evaluator contract every computation mode implements: one
// object per (Problem, Config) pair that owns whatever cached state repeated
// likelihood evaluations need — a Σ buffer, tile descriptors, a fused task
// DAG, or a distributed World — and exposes the operations Session's MLE and
// kriging pipelines are built from. Adding a computation mode means
// implementing this interface and registering a constructor with
// RegisterBackend; nothing in session.go, predict, metrics or the serving
// layer dispatches on Mode.
//
// Backends are NOT safe for concurrent use: Session calls every method below
// under its write lock, and results of one call may alias state the next one
// overwrites.
type Backend interface {
	// Mode identifies the registration the backend was built from.
	Mode() Mode
	// LogLikelihood evaluates ℓ(θ) (paper eq. 1) with full diagnostics.
	LogLikelihood(theta cov.Params) (LikResult, error)
	// ProfiledLogLikelihood evaluates the concentrated likelihood ℓ_p(θ₂, θ₃)
	// with the variance profiled out (see the package-level
	// ProfiledLogLikelihood for the formulation).
	ProfiledLogLikelihood(rangeP, smoothness float64) (logL, varianceHat float64, err error)
	// SolveVec overwrites b with Σ⁻¹·b for the given kernel and nugget,
	// factoring (or re-factoring) as needed.
	SolveVec(k *cov.Kernel, nugget float64, b []float64) error
	// HalfSolveChunked is the bounded-memory kriging-variance primitive: it
	// factors once, half-solves y (overwritten with L⁻¹·y on a private copy
	// passed to visit), then assembles and half-solves the cross-covariance
	// Σ₂₁ one chunk-wide column block at a time, handing each solved block to
	// visit with its starting column.
	HalfSolveChunked(k *cov.Kernel, nugget float64, newPts []geom.Point, chunk int, y []float64, visit func(col int, w *la.Mat, y []float64)) error
	// Diagnostics reports the degradation bookkeeping Session.Metrics
	// surfaces (failed factorizations, nugget escalations, last failure).
	Diagnostics() Diagnostics
	// EnableTracing switches subsequent executions to traced mode.
	EnableTracing()
	// Trace returns the most recent execution trace, nil if tracing is off or
	// nothing traced ran yet.
	Trace() *runtime.Trace
}

// FactorBackend is the optional capability shared-memory backends implement:
// a factorization that lives in this address space and can be handed out as a
// Factor. Session's (θ, nugget)-keyed predict cache requires it. A Factor
// aliases the backend's cached buffers: it is read-only, and safe for
// concurrent HalfSolveMat calls, from the Factorize that returned it until
// the backend's next factorization of any kind, which overwrites it —
// Session drops its cached Factor before every such call. Distributed
// backends keep their factor sharded across ranks and do not implement this;
// Session falls back to the Backend-level solve primitives for them.
type FactorBackend interface {
	Backend
	// Factorize assembles Σ for (k, nugget) and factors it under the
	// recovery rule (nugget ladder on breakdown, replay on a task panic).
	Factorize(k *cov.Kernel, nugget float64) (Factor, error)
}

// CommBackend is the optional capability distributed backends implement:
// per-rank communication statistics (the measured counterpart of
// cluster.DistCholeskyComm).
type CommBackend interface {
	Backend
	CommStats() []mpi.CommStats
}

// Diagnostics is the graceful-degradation bookkeeping every backend keeps:
// how the most recent successful factorization was obtained and how often the
// session has had to degrade to get one.
type Diagnostics struct {
	// LastNugget is the diagonal nugget the most recent successful
	// factorization ran with; LastRetries counts the escalations it took.
	LastNugget  float64
	LastRetries int
	// FactorFailures counts failed factorization attempts (a replayed fault
	// is not one); NuggetEscalations how many were answered by growing the
	// nugget.
	// LastFailure is the most recent failure's message, empty if none.
	FactorFailures    int64
	NuggetEscalations int64
	LastFailure       string
	// Replays counts the evaluations this session re-ran from generation
	// after a task panic or a rank death (see Config.MaxRetries); RanksLost
	// how many of those shrank the distributed world by one rank (always 0
	// on shared-memory backends).
	Replays   int64
	RanksLost int
}

// BackendSpec describes one registered computation mode: its canonical name
// (what Mode.String, Config.Ordering-style flags and the serving wire format
// use), optional accepted aliases, and the constructors. New builds the
// shared-memory backend; NewDist, when non-nil, marks the mode
// distributed-capable and builds the Ranks>1 backend. Constructors receive a
// validated, normalized Config and a Problem already in its final spatial
// ordering.
type BackendSpec struct {
	Name    string
	Aliases []string
	New     func(p *Problem, cfg Config, inj *chaos.Injector) (Backend, error)
	NewDist func(p *Problem, cfg Config, inj *chaos.Injector) (Backend, error)
}

// backends is the mode registry. Populated by RegisterBackend from init
// functions; read-only afterwards, so no locking.
var backends = map[Mode]BackendSpec{}

// RegisterBackend adds a computation mode to the registry. It must be called
// during package initialization (the built-in modes register themselves from
// init functions); duplicate modes or names panic — they are programming
// errors, not runtime conditions.
func RegisterBackend(m Mode, spec BackendSpec) {
	if spec.Name == "" || spec.New == nil {
		panic(fmt.Sprintf("core: RegisterBackend(%d): Name and New are required", int(m)))
	}
	if _, dup := backends[m]; dup {
		panic(fmt.Sprintf("core: duplicate backend registration for mode %d", int(m)))
	}
	for other, o := range backends {
		if o.Name == spec.Name {
			panic(fmt.Sprintf("core: backend name %q already registered for mode %d", spec.Name, int(other)))
		}
	}
	backends[m] = spec
}

// lookupBackend returns the registration for m.
func lookupBackend(m Mode) (BackendSpec, bool) {
	spec, ok := backends[m]
	return spec, ok
}

// ModeNames returns the canonical names of every registered mode, sorted.
func ModeNames() []string {
	names := make([]string, 0, len(backends))
	for _, spec := range backends {
		names = append(names, spec.Name)
	}
	sort.Strings(names)
	return names
}

// ModeByName resolves a mode name (canonical or alias, case-insensitive) to
// its Mode. Unknown names are an error listing what is registered.
func ModeByName(name string) (Mode, error) {
	want := strings.ToLower(strings.TrimSpace(name))
	for m, spec := range backends {
		if spec.Name == want {
			return m, nil
		}
		for _, a := range spec.Aliases {
			if a == want {
				return m, nil
			}
		}
	}
	return 0, fmt.Errorf("core: unknown mode %q (have %s)", name, strings.Join(ModeNames(), ", "))
}

// distModeNames returns the canonical names of the distributed-capable modes,
// sorted and uppercased for error messages ("TLR").
func distModeNames() []string {
	var names []string
	for _, spec := range backends {
		if spec.NewDist != nil {
			names = append(names, strings.ToUpper(spec.Name))
		}
	}
	sort.Strings(names)
	return names
}

// newBackend builds the backend cfg selects: the distributed constructor when
// Ranks > 1, the shared-memory one otherwise. cfg must be validated and
// normalized.
func newBackend(p *Problem, cfg Config, inj *chaos.Injector) (Backend, error) {
	spec, ok := lookupBackend(cfg.Mode)
	if !ok {
		return nil, fmt.Errorf("core: unknown mode %v", cfg.Mode)
	}
	if cfg.Ranks > 1 {
		if spec.NewDist == nil {
			return nil, fmt.Errorf("core: distributed execution (Ranks=%d) requires Mode=%s, got %v",
				cfg.Ranks, strings.Join(distModeNames(), "|"), cfg.Mode)
		}
		return spec.NewDist(p, cfg, inj)
	}
	return spec.New(p, cfg, inj)
}
