package core

import (
	"math"
	"strings"
	"testing"

	"repro/internal/cov"
	"repro/internal/geom"
	"repro/internal/rng"
)

func theta() cov.Params { return cov.Params{Variance: 1, Range: 0.1, Smoothness: 0.5} }

func smallProblem(t *testing.T, n int, seed uint64) *Problem {
	t.Helper()
	syn, err := GenerateSynthetic(n, 0, theta(), seed)
	if err != nil {
		t.Fatal(err)
	}
	return syn.Train
}

func TestNewProblemValidation(t *testing.T) {
	if _, err := NewProblem(nil, nil, geom.Euclidean); err == nil {
		t.Fatal("empty dataset must error")
	}
	pts := geom.GeneratePerturbedGrid(4, rng.New(1))
	if _, err := NewProblem(pts, []float64{1, 2}, geom.Euclidean); err == nil {
		t.Fatal("length mismatch must error")
	}
	p, err := NewProblem(pts, []float64{1, 2, 3, 4}, geom.Euclidean)
	if err != nil || p.N() != 4 {
		t.Fatalf("valid problem rejected: %v", err)
	}
}

// nonFinite is one NaN and the two infinities.
var nonFinite = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}

// TestNewProblemRejectsNonFinite: a NaN or infinite coordinate or
// measurement is an error naming its index. Accepted, a NaN distance reads as
// covariance 0 from the correlation table and the likelihood comes out finite
// and wrong.
func TestNewProblemRejectsNonFinite(t *testing.T) {
	for _, bad := range nonFinite {
		for field := 0; field < 3; field++ {
			pts := geom.GeneratePerturbedGrid(4, rng.New(1))
			z := []float64{1, 2, 3, 4}
			switch field {
			case 0:
				pts[2].X = bad
			case 1:
				pts[2].Y = bad
			case 2:
				z[2] = bad
			}
			_, err := NewProblem(pts, z, geom.Euclidean)
			if err == nil || !strings.Contains(err.Error(), " 2 ") || !strings.Contains(err.Error(), "finite") {
				t.Errorf("%v in field %d of observation 2: got %v", bad, field, err)
			}
		}
	}
}

// TestSessionPredictRejectsNonFinite: Predict at a NaN or infinite location
// is an error naming it, not a silent 0.
func TestSessionPredictRejectsNonFinite(t *testing.T) {
	s, err := NewSession(smallProblem(t, 25, 11), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	th := cov.Params{Variance: 1, Range: 0.1, Smoothness: 0.6}
	for _, bad := range nonFinite {
		pts := []geom.Point{{X: 0.5, Y: 0.5}, {X: bad, Y: 0.5}}
		if out, err := s.Predict(pts, th); err == nil || !strings.Contains(err.Error(), "location 1") {
			t.Errorf("Predict at x=%v: got %v, %v", bad, out, err)
		}
	}
}

// TestSessionPredictWithVarianceRejectsNonFinite: the same for the
// conditional variance.
func TestSessionPredictWithVarianceRejectsNonFinite(t *testing.T) {
	s, err := NewSession(smallProblem(t, 25, 11), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	th := cov.Params{Variance: 1, Range: 0.1, Smoothness: 0.6}
	for _, bad := range nonFinite {
		pts := []geom.Point{{X: 0.5, Y: bad}}
		if pr, err := s.PredictWithVariance(pts, th); err == nil || !strings.Contains(err.Error(), "location 0") {
			t.Errorf("PredictWithVariance at y=%v: got %+v, %v", bad, pr, err)
		}
	}
}

func TestLogLikelihoodHigherAtTruth(t *testing.T) {
	// ℓ(θ*) should beat clearly wrong parameter guesses on average.
	p := smallProblem(t, 121, 4)
	good, err := LogLikelihood(p, theta(), Config{Mode: FullBlock})
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []cov.Params{
		{Variance: 10, Range: 0.1, Smoothness: 0.5},
		{Variance: 1, Range: 1.5, Smoothness: 0.5},
		{Variance: 0.1, Range: 0.01, Smoothness: 2},
	} {
		b, err := LogLikelihood(p, bad, Config{Mode: FullBlock})
		if err != nil {
			t.Fatal(err)
		}
		if b.Value >= good.Value {
			t.Fatalf("likelihood at bad θ %v (%g) ≥ at truth (%g)", bad, b.Value, good.Value)
		}
	}
}

func TestLogLikelihoodRejectsBadParams(t *testing.T) {
	p := smallProblem(t, 25, 5)
	if _, err := LogLikelihood(p, cov.Params{Variance: -1, Range: 0.1, Smoothness: 0.5}, Config{}); err == nil {
		t.Fatal("negative variance must error")
	}
}

func TestFitRecoversParameters(t *testing.T) {
	// Moderate-size exact-mode fit: estimates should land near the truth.
	syn, err := GenerateSynthetic(324, 0, theta(), 7)
	if err != nil {
		t.Fatal(err)
	}
	fit, err := Fit(syn.Train, Config{Mode: FullBlock}, FitOptions{MaxEvals: 160})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Theta.Smoothness-0.5) > 0.15 {
		t.Errorf("smoothness estimate %g far from 0.5", fit.Theta.Smoothness)
	}
	if fit.Theta.Variance < 0.4 || fit.Theta.Variance > 2.5 {
		t.Errorf("variance estimate %g implausible", fit.Theta.Variance)
	}
	if fit.Theta.Range < 0.03 || fit.Theta.Range > 0.4 {
		t.Errorf("range estimate %g implausible", fit.Theta.Range)
	}
}

func TestFitTLRMatchesExactFit(t *testing.T) {
	syn, err := GenerateSynthetic(256, 0, theta(), 8)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := Fit(syn.Train, Config{Mode: FullBlock}, FitOptions{MaxEvals: 100, FixSmoothness: true, Start: cov.Params{Smoothness: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	tlrFit, err := Fit(syn.Train, Config{Mode: TLR, TileSize: 64, Accuracy: 1e-9}, FitOptions{MaxEvals: 100, FixSmoothness: true, Start: cov.Params{Smoothness: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tlrFit.Theta.Variance-exact.Theta.Variance) > 0.25*exact.Theta.Variance {
		t.Errorf("TLR variance %g vs exact %g", tlrFit.Theta.Variance, exact.Theta.Variance)
	}
	if math.Abs(tlrFit.Theta.Range-exact.Theta.Range) > 0.3*exact.Theta.Range {
		t.Errorf("TLR range %g vs exact %g", tlrFit.Theta.Range, exact.Theta.Range)
	}
}

func TestPredictImputesWell(t *testing.T) {
	// Prediction MSE must be well below the field variance (it exploits
	// spatial correlation) and close between exact and TLR.
	syn, err := GenerateSynthetic(400, 40, cov.Params{Variance: 1, Range: 0.3, Smoothness: 0.5}, 10)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := Predict(syn.Train, syn.TestPoints, syn.Truth, Config{Mode: FullBlock})
	if err != nil {
		t.Fatal(err)
	}
	mse := MSE(pred, syn.TestZ)
	if mse > 0.25 {
		t.Fatalf("prediction MSE %g too high for strongly correlated field", mse)
	}
}

func TestPredictEmptyAndErrors(t *testing.T) {
	p := smallProblem(t, 25, 11)
	out, err := Predict(p, nil, theta(), Config{})
	if err != nil || out != nil {
		t.Fatal("empty prediction should be a no-op")
	}
	if _, err := Predict(p, []geom.Point{{X: 0.5, Y: 0.5}}, cov.Params{}, Config{}); err == nil {
		t.Fatal("invalid theta must error")
	}
}

func TestMSE(t *testing.T) {
	if MSE([]float64{1, 2}, []float64{1, 4}) != 2 {
		t.Fatal("MSE arithmetic wrong")
	}
	if MSE(nil, nil) != 0 {
		t.Fatal("empty MSE should be 0")
	}
}

func TestGenerateSyntheticSplit(t *testing.T) {
	syn, err := GenerateSynthetic(100, 10, theta(), 12)
	if err != nil {
		t.Fatal(err)
	}
	if syn.Train.N() != 90 || len(syn.TestPoints) != 10 || len(syn.TestZ) != 10 {
		t.Fatalf("split sizes wrong: %d train, %d test", syn.Train.N(), len(syn.TestPoints))
	}
	if _, err := GenerateSynthetic(10, 10, theta(), 1); err == nil {
		t.Fatal("nTest >= n must error")
	}
	if _, err := GenerateSynthetic(10, 2, cov.Params{}, 1); err == nil {
		t.Fatal("invalid theta must error")
	}
}

func TestGenerateSyntheticReplicatesShareLocations(t *testing.T) {
	probs, err := GenerateSyntheticReplicates(64, 3, theta(), 13)
	if err != nil {
		t.Fatal(err)
	}
	if len(probs) != 3 {
		t.Fatal("wrong replicate count")
	}
	for i := 1; i < 3; i++ {
		for j := range probs[0].Points {
			if probs[i].Points[j] != probs[0].Points[j] {
				t.Fatal("replicates should share the location matrix")
			}
		}
	}
	same := 0
	for j := range probs[0].Z {
		if probs[0].Z[j] == probs[1].Z[j] {
			same++
		}
	}
	if same == len(probs[0].Z) {
		t.Fatal("replicates should have different measurements")
	}
}

func TestModeString(t *testing.T) {
	if FullBlock.String() != "full-block" || FullTile.String() != "full-tile" || TLR.String() != "tlr" {
		t.Fatal("mode names wrong")
	}
	if Mode(99).String() == "" {
		t.Fatal("unknown mode should still format")
	}
}
