package optimize

import (
	"errors"
	"math"
	"testing"
)

func box(n int, lo, hi float64) ([]float64, []float64) {
	l := make([]float64, n)
	u := make([]float64, n)
	for i := range l {
		l[i] = lo
		u[i] = hi
	}
	return l, u
}

func TestQuadraticBowl(t *testing.T) {
	lo, hi := box(3, -10, 10)
	p := Problem{
		Objective: func(x []float64) float64 {
			var s float64
			for i, v := range x {
				d := v - float64(i+1)
				s += d * d
			}
			return s
		},
		Lower: lo, Upper: hi,
	}
	r, err := NelderMead(p, []float64{5, -5, 5}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range r.X {
		if math.Abs(v-float64(i+1)) > 1e-4 {
			t.Fatalf("x[%d] = %g, want %d", i, v, i+1)
		}
	}
	if !r.Converged {
		t.Fatal("should converge on a quadratic")
	}
}

func TestRosenbrock(t *testing.T) {
	lo, hi := box(2, -5, 5)
	p := Problem{
		Objective: func(x []float64) float64 {
			a := 1 - x[0]
			b := x[1] - x[0]*x[0]
			return a*a + 100*b*b
		},
		Lower: lo, Upper: hi,
	}
	r, err := NelderMead(p, []float64{-1.2, 1}, Options{MaxEvals: 5000, TolX: 1e-9, TolF: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.X[0]-1) > 1e-3 || math.Abs(r.X[1]-1) > 1e-3 {
		t.Fatalf("Rosenbrock minimum missed: %v (f=%g)", r.X, r.F)
	}
}

func TestBoundsRespected(t *testing.T) {
	// Unconstrained minimum at (-3, -3) but box is [0, 5]²: solution (0, 0).
	lo, hi := box(2, 0, 5)
	p := Problem{
		Objective: func(x []float64) float64 {
			return (x[0]+3)*(x[0]+3) + (x[1]+3)*(x[1]+3)
		},
		Lower: lo, Upper: hi,
	}
	r, err := NelderMead(p, []float64{4, 4}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range r.X {
		if v < 0 || v > 5 {
			t.Fatalf("bound violated: %v", r.X)
		}
	}
	if r.X[0] > 1e-3 || r.X[1] > 1e-3 {
		t.Fatalf("constrained minimum missed: %v", r.X)
	}
}

func TestStartOutsideBoxIsClipped(t *testing.T) {
	lo, hi := box(1, 0, 1)
	p := Problem{Objective: func(x []float64) float64 { return x[0] * x[0] }, Lower: lo, Upper: hi}
	r, err := NelderMead(p, []float64{50}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.X[0] < 0 || r.X[0] > 1 {
		t.Fatalf("start clipping failed: %v", r.X)
	}
}

func TestNaNObjectiveTreatedAsBad(t *testing.T) {
	lo, hi := box(2, -2, 2)
	p := Problem{
		Objective: func(x []float64) float64 {
			if x[0] < 0 {
				return math.NaN()
			}
			return (x[0] - 1) * (x[0] - 1) * (1 + x[1]*x[1])
		},
		Lower: lo, Upper: hi,
	}
	r, err := NelderMead(p, []float64{1.5, 1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.X[0]-1) > 1e-3 {
		t.Fatalf("NaN region derailed search: %v", r.X)
	}
}

// TestMaxEvalsHonored: at every budget the search evaluates no point twice —
// the first simplex reuses the start point's value — and Evals counts
// exactly the objective calls, never more than MaxEvals.
func TestMaxEvalsHonored(t *testing.T) {
	lo, hi := box(2, -5, 5)
	for budget := 1; budget <= 120; budget++ {
		seen := map[[2]float64]bool{}
		repeated := false
		p := Problem{
			Objective: func(x []float64) float64 {
				k := [2]float64{x[0], x[1]}
				repeated = repeated || seen[k]
				seen[k] = true
				return (x[0]-1)*(x[0]-1) + 3*(x[1]-2)*(x[1]-2)
			},
			Lower: lo, Upper: hi,
		}
		r, err := NelderMead(p, []float64{4, -3}, Options{MaxEvals: budget, TolX: 1e-12, TolF: 1e-15})
		if err != nil {
			t.Fatal(err)
		}
		if repeated {
			t.Fatalf("MaxEvals %d: a point was evaluated twice", budget)
		}
		if r.Evals != len(seen) || r.Evals > budget {
			t.Fatalf("MaxEvals %d: Evals %d for %d calls", budget, r.Evals, len(seen))
		}
	}
}

func TestValidationErrors(t *testing.T) {
	lo, hi := box(2, 0, 1)
	cases := []struct {
		p  Problem
		x0 []float64
	}{
		{Problem{Objective: nil, Lower: lo, Upper: hi}, []float64{0.5, 0.5}},
		{Problem{Objective: func([]float64) float64 { return 0 }, Lower: lo[:1], Upper: hi}, []float64{0.5, 0.5}},
		{Problem{Objective: func([]float64) float64 { return 0 }, Lower: hi, Upper: lo}, []float64{0.5, 0.5}},
		{Problem{Objective: func([]float64) float64 { return 0 }, Lower: lo, Upper: hi}, nil},
	}
	for i, c := range cases {
		if _, err := NelderMead(c.p, c.x0, Options{}); !errors.Is(err, ErrBadProblem) {
			t.Errorf("case %d: want ErrBadProblem, got %v", i, err)
		}
	}
}

// The three-parameter Matérn-like shape: anisotropic curved valley in a
// positive box, representative of the actual MLE surface.
func TestCurvedValley3D(t *testing.T) {
	lo, hi := box(3, 0.01, 5)
	p := Problem{
		Objective: func(x []float64) float64 {
			a := math.Log(x[0]) - math.Log(1.0)
			b := 10 * (math.Log(x[1]) - math.Log(0.1))
			c := 3 * (x[2] - 0.5)
			return a*a + b*b + c*c + 0.1*a*b
		},
		Lower: lo, Upper: hi,
	}
	r, err := NelderMead(p, []float64{0.5, 0.05, 1}, Options{MaxEvals: 4000, TolX: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.X[0]-1) > 5e-3 || math.Abs(r.X[1]-0.1) > 5e-3 || math.Abs(r.X[2]-0.5) > 5e-3 {
		t.Fatalf("valley minimum missed: %v", r.X)
	}
}

// sphere2D is a deterministic smooth objective with its minimum at (1, 2).
func sphere2D() Problem {
	lo, hi := box(2, -10, 10)
	return Problem{
		Objective: func(x []float64) float64 {
			a, b := x[0]-1, x[1]-2
			return a*a + b*b + 0.5
		},
		Lower: lo, Upper: hi,
	}
}

// TestConvergedReflectsReturnedMinimum: a run whose budget outlasts a
// converging descent reports Converged=true for the minimum that descent
// found, and spends no evaluation after it.
func TestConvergedReflectsReturnedMinimum(t *testing.T) {
	p := sphere2D()
	start := []float64{7, -4}

	base, err := NelderMead(p, start, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !base.Converged {
		t.Fatal("the descent must converge on a sphere")
	}

	// A budget that admits the converged descent plus a sliver more.
	r, err := NelderMead(p, start, Options{MaxEvals: base.Evals + 2})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Converged {
		t.Fatalf("converged answer reported Converged=false (evals %d)", r.Evals)
	}
	if r.Evals != base.Evals {
		t.Fatalf("%d evaluations with room for %d, %d without", r.Evals, base.Evals+2, base.Evals)
	}
	if math.Abs(r.X[0]-1) > 1e-4 || math.Abs(r.X[1]-2) > 1e-4 {
		t.Fatalf("minimum off: %v", r.X)
	}
}

// TestExhaustedBudgetStaysUnconverged pins the other side: when the descent
// does not meet the tolerances, Converged must remain false.
func TestExhaustedBudgetStaysUnconverged(t *testing.T) {
	p := sphere2D()
	r, err := NelderMead(p, []float64{7, -4}, Options{MaxEvals: 8})
	if err != nil {
		t.Fatal(err)
	}
	if r.Converged {
		t.Fatal("8 evaluations cannot satisfy the default tolerances")
	}
}
