package core

import (
	"math"
	"testing"

	"repro/internal/cov"
	"repro/internal/geom"
	"repro/internal/optimize"
)

func TestPredictVariancePositiveAndBounded(t *testing.T) {
	syn, err := GenerateSynthetic(256, 25, theta(), 22)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := PredictWithVariance(syn.Train, syn.TestPoints, theta(), Config{Mode: FullBlock})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range pr.Variance {
		if v < 0 || v > theta().Variance*1.001 {
			t.Fatalf("variance %d = %g outside [0, θ1]", i, v)
		}
		if pr.CI95(i) < 0 {
			t.Fatal("negative CI width")
		}
	}
}

func TestPredictVarianceShrinksNearData(t *testing.T) {
	// A new point essentially on top of an observation has near-zero
	// conditional variance; a far-away point approaches the prior variance.
	syn, err := GenerateSynthetic(200, 0, cov.Params{Variance: 1, Range: 0.1, Smoothness: 0.5}, 23)
	if err != nil {
		t.Fatal(err)
	}
	near := syn.Train.Points[0]
	near.X += 1e-4
	far := near
	far.X = near.X + 50 // far outside the unit square
	pr, err := PredictWithVariance(syn.Train, []geom.Point{near, far}, theta(), Config{Mode: FullBlock})
	if err != nil {
		t.Fatal(err)
	}
	if pr.Variance[0] > 0.05 {
		t.Fatalf("variance near an observation should be small: %g", pr.Variance[0])
	}
	if pr.Variance[1] < 0.9 {
		t.Fatalf("variance far from data should approach θ1: %g", pr.Variance[1])
	}
}

func TestPredictionCoverageCalibrated(t *testing.T) {
	// Pooled across replicates, the 95% intervals should cover ~95% of
	// held-out truths (within Monte-Carlo slack).
	var pooledIn, pooledTot int
	for rep := 0; rep < 6; rep++ {
		syn, err := GenerateSynthetic(250, 25, cov.Params{Variance: 1, Range: 0.2, Smoothness: 0.5}, 100+uint64(rep))
		if err != nil {
			t.Fatal(err)
		}
		pr, err := PredictWithVariance(syn.Train, syn.TestPoints, syn.Truth, Config{Mode: FullBlock})
		if err != nil {
			t.Fatal(err)
		}
		cov95, err := CoverageCheck(pr, syn.TestZ)
		if err != nil {
			t.Fatal(err)
		}
		pooledIn += int(cov95*float64(len(syn.TestZ)) + 0.5)
		pooledTot += len(syn.TestZ)
	}
	coverage := float64(pooledIn) / float64(pooledTot)
	if coverage < 0.85 || coverage > 1.0 {
		t.Fatalf("95%% interval empirical coverage %g badly calibrated", coverage)
	}
}

func TestPredictWithVarianceEdgeCases(t *testing.T) {
	p := smallProblem(t, 25, 25)
	pr, err := PredictWithVariance(p, nil, theta(), Config{})
	if err != nil || pr.Mean != nil {
		t.Fatal("empty prediction should be a no-op")
	}
	if _, err := PredictWithVariance(p, []geom.Point{{X: 0.5, Y: 0.5}}, cov.Params{}, Config{}); err == nil {
		t.Fatal("invalid theta must error")
	}
	if _, err := CoverageCheck(Prediction{Mean: []float64{1}}, nil); err == nil {
		t.Fatal("coverage length mismatch must error")
	}
	frac, err := CoverageCheck(Prediction{}, nil)
	if err != nil || frac != 0 {
		t.Fatal("empty coverage should be 0, nil")
	}
}

func TestCI95ZeroVariance(t *testing.T) {
	pr := Prediction{Mean: []float64{2, 3}, Variance: []float64{0, 0.25}}
	if w := pr.CI95(0); w != 0 {
		t.Fatalf("zero variance must give a zero-width interval, got %g", w)
	}
	if w := pr.CI95(1); math.Abs(w-1.96*0.5) > 1e-15 {
		t.Fatalf("CI95 half-width %g, want %g", w, 1.96*0.5)
	}
	// A zero-variance interval covers exactly the truths equal to the mean.
	frac, err := CoverageCheck(pr, []float64{2, 3})
	if err != nil || frac != 1 {
		t.Fatalf("exact truths must be covered: frac=%g err=%v", frac, err)
	}
	frac, err = CoverageCheck(pr, []float64{2.0001, 3})
	if err != nil || frac != 0.5 {
		t.Fatalf("zero-variance interval must miss a perturbed truth: frac=%g err=%v", frac, err)
	}
}

func TestCoverageCheckLengthMismatch(t *testing.T) {
	pr := Prediction{Mean: []float64{1, 2}, Variance: []float64{1, 1}}
	if _, err := CoverageCheck(pr, []float64{1}); err == nil {
		t.Fatal("shorter truth must error")
	}
	if _, err := CoverageCheck(pr, []float64{1, 2, 3}); err == nil {
		t.Fatal("longer truth must error")
	}
}

func TestProfiledLikelihoodMatchesFull(t *testing.T) {
	// ℓ_p(θ2, θ3) must equal ℓ(θ̂1, θ2, θ3) at the concentrated variance.
	p := smallProblem(t, 144, 26)
	s := NewSessionMust(t, p, Config{Mode: FullBlock})
	defer s.Close()
	ll, varHat, err := s.ProfiledLogLikelihood(0.1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	full, err := LogLikelihood(p, cov.Params{Variance: varHat, Range: 0.1, Smoothness: 0.5}, Config{Mode: FullBlock, Nugget: 1e-9 * varHat})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ll-full.Value) > 1e-5*math.Abs(full.Value) {
		t.Fatalf("profile %g vs full at concentrated variance %g", ll, full.Value)
	}
	// And θ̂1 must be the maximizer over variance: perturbing it lowers ℓ.
	for _, fac := range []float64{0.8, 1.25} {
		worse, err := LogLikelihood(p, cov.Params{Variance: varHat * fac, Range: 0.1, Smoothness: 0.5}, Config{Mode: FullBlock, Nugget: 1e-9 * varHat})
		if err != nil {
			t.Fatal(err)
		}
		if worse.Value > full.Value {
			t.Fatalf("variance %g·θ̂1 beats the concentrated value", fac)
		}
	}
}

// Fit's concentrated search reaches the MLE of ℓ(θ). The reference is a 3-D
// Nelder–Mead over (log θ₁, log θ₂, θ₃) on Session.LogLikelihood — the search
// Fit ran before it concentrated θ₁ out — and Fit's ℓ may be no lower than
// the reference's. ℓ at the reported θ̂ must also be the reported LogL, which
// makes the reported θ̂₁ the maximizer over the variance.
func TestFitMatchesThreeParameterSearch(t *testing.T) {
	syn, err := GenerateSynthetic(256, 0, theta(), 27)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSessionMust(t, syn.Train, Config{Mode: FullBlock})
	defer s.Close()
	fit, err := s.Fit(FitOptions{MaxEvals: 150})
	if err != nil {
		t.Fatal(err)
	}
	if !fit.Converged {
		t.Errorf("fit did not converge in %d evaluations", fit.Evals)
	}

	var sum, sum2 float64
	for _, z := range syn.Train.Z {
		sum, sum2 = sum+z, sum2+z*z
	}
	n := float64(syn.Train.N())
	v0 := sum2/n - (sum/n)*(sum/n) // the empirical variance, the 3-D search's start
	obj := func(x []float64) float64 {
		lik, err := s.LogLikelihood(cov.Params{Variance: math.Exp(x[0]), Range: math.Exp(x[1]), Smoothness: x[2]})
		if err != nil {
			return math.Inf(1)
		}
		return -lik.Value
	}
	ref, err := optimize.NelderMead(optimize.Problem{
		Objective: obj,
		Lower:     []float64{math.Log(1e-3), math.Log(1e-3), 0.1},
		Upper:     []float64{math.Log(100 * v0), math.Log(10), 3},
	}, []float64{math.Log(v0), math.Log(0.1), 0.5}, optimize.Options{MaxEvals: 400, TolX: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	if !ref.Converged {
		t.Fatalf("3-D reference did not converge in %d evaluations", ref.Evals)
	}
	t.Logf("fit ℓ %.10g in %d evaluations, 3-D reference ℓ %.10g in %d", fit.LogL, fit.Evals, -ref.F, ref.Evals)
	if refL := -ref.F; fit.LogL < refL-1e-6*math.Abs(refL) {
		t.Errorf("fit ℓ %.10g (%d evaluations) is below the 3-D reference's %.10g (%d evaluations)", fit.LogL, fit.Evals, refL, ref.Evals)
	}

	at, err := s.LogLikelihood(fit.Theta)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(at.Value-fit.LogL) > 1e-10*math.Abs(fit.LogL) {
		t.Errorf("ℓ(θ̂) = %.17g, the fit reported %.17g", at.Value, fit.LogL)
	}
}

func TestProfiledFitFixedSmoothness(t *testing.T) {
	syn, err := GenerateSynthetic(196, 0, theta(), 28)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := Fit(syn.Train, Config{Mode: TLR, TileSize: 64, Accuracy: 1e-8},
		FitOptions{MaxEvals: 60, FixSmoothness: true, Start: theta()})
	if err != nil {
		t.Fatal(err)
	}
	if prof.Theta.Smoothness != 0.5 {
		t.Fatalf("smoothness should stay fixed: %g", prof.Theta.Smoothness)
	}
	if prof.Theta.Range < 0.01 || prof.Theta.Range > 1 {
		t.Fatalf("range estimate %g implausible", prof.Theta.Range)
	}
}
