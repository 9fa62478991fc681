package exago_test

import (
	"math"
	"testing"

	exago "repro"
)

// TestPublicAPIRoundTrip drives the facade end to end: generate → fit →
// evaluate → predict → score, in TLR mode.
func TestPublicAPIRoundTrip(t *testing.T) {
	truth := exago.Theta{Variance: 1, Range: 0.15, Smoothness: 0.5}
	syn, err := exago.GenerateSynthetic(324, 24, truth, 5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := exago.Config{Mode: exago.TLR, TileSize: 64, Accuracy: 1e-8, Workers: 2}

	fit, err := exago.Fit(syn.Train, cfg, exago.FitOptions{MaxEvals: 80, FixSmoothness: true, Start: truth})
	if err != nil {
		t.Fatal(err)
	}
	if fit.Theta.Variance <= 0 || fit.Theta.Range <= 0 {
		t.Fatalf("nonsensical estimate %+v", fit.Theta)
	}

	lik, err := exago.LogLikelihood(syn.Train, fit.Theta, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if lik.Value > 0 || math.IsNaN(lik.Value) {
		t.Fatalf("log-likelihood %g implausible", lik.Value)
	}
	if lik.Bytes <= 0 || lik.MaxRank <= 0 {
		t.Fatal("missing TLR diagnostics")
	}

	pred, err := exago.Predict(syn.Train, syn.TestPoints, fit.Theta, cfg)
	if err != nil {
		t.Fatal(err)
	}
	mse := exago.MSE(pred, syn.TestZ)
	if mse <= 0 || mse > truth.Variance {
		t.Fatalf("prediction MSE %g outside sane band", mse)
	}
}

// TestPublicAPISession covers the validated-config surface: DefaultConfig,
// Validate at the entry points, and the Session handle in both the
// shared-memory and distributed backends.
func TestPublicAPISession(t *testing.T) {
	if err := exago.DefaultConfig().Validate(); err != nil {
		t.Fatalf("DefaultConfig invalid: %v", err)
	}
	syn, err := exago.GenerateSynthetic(256, 16, exago.Theta{Variance: 1, Range: 0.1, Smoothness: 0.5}, 6)
	if err != nil {
		t.Fatal(err)
	}
	th := exago.Theta{Variance: 1, Range: 0.1, Smoothness: 0.5}

	if _, err := exago.LogLikelihood(syn.Train, th, exago.Config{CompressorName: "bogus"}); err == nil {
		t.Fatal("unknown compressor must be rejected, not coerced")
	}
	if _, err := exago.NewSession(syn.Train, exago.Config{Mode: exago.FullBlock, Ranks: 4}); err == nil {
		t.Fatal("distributed ranks require TLR mode")
	}

	cfg := exago.Config{Mode: exago.TLR, TileSize: 64, Accuracy: 1e-7}
	want, err := exago.LogLikelihood(syn.Train, th, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Distributed session: same value, reusable across calls.
	dcfg := cfg
	dcfg.Ranks = 4
	s, err := exago.NewSession(syn.Train, dcfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(s.CommStats()); got != 4 {
		t.Fatalf("Ranks=4 session reports traffic for %d ranks", got)
	}
	for rep := 0; rep < 2; rep++ {
		got, err := s.LogLikelihood(th)
		if err != nil {
			t.Fatal(err)
		}
		if rel := math.Abs(got.Value-want.Value) / math.Abs(want.Value); rel > 1e-8 {
			t.Fatalf("rep %d: distributed %.10f vs shared %.10f", rep, got.Value, want.Value)
		}
	}
	pred, err := s.Predict(syn.TestPoints, th)
	if err != nil {
		t.Fatal(err)
	}
	if mse := exago.MSE(pred, syn.TestZ); mse <= 0 || mse > 1 {
		t.Fatalf("distributed prediction MSE %g outside sane band", mse)
	}
	if stats := s.CommStats(); len(stats) != 4 || stats[0].BytesSent == 0 {
		t.Fatalf("expected live per-rank traffic counters, got %+v", stats)
	}
}

// TestPublicAPIDatasets exercises the dataset helpers and the spherical
// metric through the facade.
func TestPublicAPIDatasets(t *testing.T) {
	soil, err := exago.SoilMoisture(36, 1)
	if err != nil {
		t.Fatal(err)
	}
	wind, err := exago.WindSpeed(36, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(soil.Regions) != 8 || len(wind.Regions) != 4 {
		t.Fatalf("region counts: soil %d wind %d", len(soil.Regions), len(wind.Regions))
	}
	reg := wind.Regions[0]
	prob, err := exago.NewProblem(reg.Points, reg.Z, wind.Metric)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exago.LogLikelihood(prob, reg.Truth, exago.Config{Mode: exago.FullBlock}); err != nil {
		t.Fatal(err)
	}
}

// TestPublicAPISimulator exercises the performance-model surface.
func TestPublicAPISimulator(t *testing.T) {
	ranks := exago.CalibrateRankModel(1e-7, exago.Theta{Variance: 1, Range: 0.1, Smoothness: 0.5}, 512, 128)
	m := exago.NewMachine(exago.ShaheenNode, 16)
	dense := exago.AnalyticCholesky(m, exago.Workload{N: 200_000, NB: 560, Variant: exago.DenseVariant})
	tlr := exago.AnalyticCholesky(m, exago.Workload{N: 200_000, NB: 1900, Variant: exago.TLRWorkload, Ranks: ranks})
	if dense.OOM || tlr.OOM {
		t.Fatal("unexpected OOM at 200K/16 nodes")
	}
	if dense.Seconds <= 0 || tlr.Seconds <= 0 {
		t.Fatal("non-positive simulated times")
	}
	pred := exago.AnalyticPrediction(m, exago.Workload{N: 200_000, NB: 1900, Variant: exago.TLRWorkload, Ranks: ranks}, 100)
	if pred.Seconds <= tlr.Seconds {
		t.Fatal("prediction should cost at least the factorization")
	}
}
