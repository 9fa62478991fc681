// Package optimize provides the derivative-free bound-constrained optimizer
// that drives the maximum likelihood search — the substitute for the NLopt
// (BOBYQA) layer of ExaGeoStat. The main entry point is NelderMead, a
// downhill-simplex method with box-constraint projection and adaptive
// parameters.
package optimize

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Problem is a minimization problem over a box.
type Problem struct {
	// Objective is the function to minimize. It must tolerate any point
	// inside the box; returning +Inf or NaN marks a failed evaluation,
	// treated as a very bad point.
	Objective func(x []float64) float64
	// Lower and Upper are the box bounds; both must have the dimension of
	// the start point.
	Lower, Upper []float64
}

// Options tunes the simplex search. Zero values select the defaults noted on
// each field.
type Options struct {
	// MaxEvals caps objective evaluations (default 2000).
	MaxEvals int
	// TolX stops when the simplex diameter falls below it (default 1e-6).
	TolX float64
	// TolF stops when the spread of simplex values falls below it
	// (default 1e-8).
	TolF float64
	// InitStep is the initial simplex edge as a fraction of each
	// coordinate's box width (default 0.1).
	InitStep float64
	// Restarts has no effect: a descent stops short of the TolX/TolF
	// criteria only when MaxEvals is spent, which leaves nothing to restart
	// with. The field remains for callers that still set it.
	Restarts int
}

// Result reports the outcome of an optimization run.
type Result struct {
	X     []float64
	F     float64
	Evals int
	// Converged reports whether the descent that produced the returned
	// minimum met the TolX/TolF criteria.
	Converged bool
}

// ErrBadProblem reports malformed inputs.
var ErrBadProblem = errors.New("optimize: malformed problem")

func (o Options) withDefaults() Options {
	if o.MaxEvals <= 0 {
		o.MaxEvals = 2000
	}
	if o.TolX <= 0 {
		o.TolX = 1e-6
	}
	if o.TolF <= 0 {
		o.TolF = 1e-8
	}
	if o.InitStep <= 0 {
		o.InitStep = 0.1
	}
	return o
}

func validate(p Problem, x0 []float64) error {
	n := len(x0)
	if n == 0 || p.Objective == nil {
		return fmt.Errorf("%w: empty start point or nil objective", ErrBadProblem)
	}
	if len(p.Lower) != n || len(p.Upper) != n {
		return fmt.Errorf("%w: bounds dimension %d/%d vs %d", ErrBadProblem, len(p.Lower), len(p.Upper), n)
	}
	for i := range x0 {
		if p.Lower[i] > p.Upper[i] {
			return fmt.Errorf("%w: lower[%d] > upper[%d]", ErrBadProblem, i, i)
		}
	}
	return nil
}

func clip(x []float64, lo, hi []float64) {
	for i := range x {
		if x[i] < lo[i] {
			x[i] = lo[i]
		}
		if x[i] > hi[i] {
			x[i] = hi[i]
		}
	}
}

// NelderMead minimizes p.Objective starting from x0 (projected into the box).
func NelderMead(p Problem, x0 []float64, opt Options) (Result, error) {
	if err := validate(p, x0); err != nil {
		return Result{}, err
	}
	o := opt.withDefaults()

	evals := 0
	eval := func(x []float64) float64 {
		evals++
		v := p.Objective(x)
		if math.IsNaN(v) {
			return math.Inf(1)
		}
		return v
	}

	start := append([]float64(nil), x0...)
	clip(start, p.Lower, p.Upper)

	bestX := append([]float64(nil), start...)
	bestF := eval(bestX)
	// One descent: simplexRun returns unconverged only once MaxEvals is
	// spent, so no budget is ever left to restart from the incumbent. A
	// descent that only ties the start still stamps its convergence (same
	// answer, now within tolerance).
	x, f, conv := simplexRun(p, bestX, bestF, o, eval, &evals)
	converged := false
	if f < bestF || (f == bestF && conv) {
		bestF, converged = f, conv
		copy(bestX, x)
	}
	return Result{X: bestX, F: bestF, Evals: evals, Converged: converged}, nil
}

// simplexRun is one simplex descent from around x0, whose objective value f0
// is already known. It evaluates no point once *evals reaches o.MaxEvals.
func simplexRun(p Problem, x0 []float64, f0 float64, o Options, eval func([]float64) float64, evals *int) ([]float64, float64, bool) {
	n := len(x0)
	// adaptive Nelder–Mead parameters (Gao & Han 2012)
	alpha := 1.0
	beta := 1.0 + 2.0/float64(n)
	gamma := 0.75 - 1.0/(2*float64(n))
	delta := 1.0 - 1.0/float64(n)

	type vertex struct {
		x []float64
		f float64
	}
	budget := func() bool { return *evals < o.MaxEvals }
	simplex := make([]vertex, 1, n+1)
	simplex[0] = vertex{x: append([]float64(nil), x0...), f: f0}
	for i := 1; i <= n && budget(); i++ {
		x := append([]float64(nil), x0...)
		width := p.Upper[i-1] - p.Lower[i-1]
		step := o.InitStep * width
		if width == 0 || math.IsInf(width, 0) {
			step = o.InitStep * math.Max(math.Abs(x[i-1]), 1)
		}
		// step away from a bound if needed
		if x[i-1]+step > p.Upper[i-1] {
			step = -step
		}
		x[i-1] += step
		clip(x, p.Lower, p.Upper)
		simplex = append(simplex, vertex{x: x, f: eval(x)})
	}

	centroid := make([]float64, n)
	trial := make([]float64, n)
	trial2 := make([]float64, n)

	for len(simplex) == n+1 && budget() {
		sort.Slice(simplex, func(a, b int) bool { return simplex[a].f < simplex[b].f })
		// convergence checks
		diam := 0.0
		for i := 1; i <= n; i++ {
			for j := 0; j < n; j++ {
				d := math.Abs(simplex[i].x[j] - simplex[0].x[j])
				if d > diam {
					diam = d
				}
			}
		}
		spread := math.Abs(simplex[n].f - simplex[0].f)
		if diam < o.TolX || spread < o.TolF*(math.Abs(simplex[0].f)+1e-30) {
			return simplex[0].x, simplex[0].f, true
		}

		for j := 0; j < n; j++ {
			var s float64
			for i := 0; i < n; i++ { // all but the worst
				s += simplex[i].x[j]
			}
			centroid[j] = s / float64(n)
		}
		worst := simplex[n]
		// reflection
		for j := 0; j < n; j++ {
			trial[j] = centroid[j] + alpha*(centroid[j]-worst.x[j])
		}
		clip(trial, p.Lower, p.Upper)
		fr := eval(trial)
		switch {
		case fr < simplex[0].f:
			// expansion
			for j := 0; j < n; j++ {
				trial2[j] = centroid[j] + beta*(trial[j]-centroid[j])
			}
			clip(trial2, p.Lower, p.Upper)
			fe := math.Inf(1)
			if budget() {
				fe = eval(trial2)
			}
			if fe < fr {
				copy(simplex[n].x, trial2)
				simplex[n].f = fe
			} else {
				copy(simplex[n].x, trial)
				simplex[n].f = fr
			}
		case fr < simplex[n-1].f:
			copy(simplex[n].x, trial)
			simplex[n].f = fr
		default:
			// contraction (outside if reflected point improved on worst)
			if fr < worst.f {
				for j := 0; j < n; j++ {
					trial2[j] = centroid[j] + gamma*(trial[j]-centroid[j])
				}
			} else {
				for j := 0; j < n; j++ {
					trial2[j] = centroid[j] - gamma*(centroid[j]-worst.x[j])
				}
			}
			clip(trial2, p.Lower, p.Upper)
			fc := math.Inf(1)
			if budget() {
				fc = eval(trial2)
			}
			if fc < math.Min(fr, worst.f) {
				copy(simplex[n].x, trial2)
				simplex[n].f = fc
			} else {
				// shrink toward the best vertex, moving only the vertices
				// the budget can evaluate
				for i := 1; i <= n && budget(); i++ {
					for j := 0; j < n; j++ {
						simplex[i].x[j] = simplex[0].x[j] + delta*(simplex[i].x[j]-simplex[0].x[j])
					}
					clip(simplex[i].x, p.Lower, p.Upper)
					simplex[i].f = eval(simplex[i].x)
				}
			}
		}
	}
	sort.Slice(simplex, func(a, b int) bool { return simplex[a].f < simplex[b].f })
	return simplex[0].x, simplex[0].f, false
}
