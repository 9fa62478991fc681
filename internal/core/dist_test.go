package core

import (
	"math"
	"testing"
)

// TestDistributedLogLikMatchesShared is the acceptance criterion for the
// distributed backend: at n=1600, nb=128, acc=1e-7 the distributed TLR
// log-likelihood matches the shared-memory TLR value to 1e-8 relative on
// 1, 4 and 6 ranks (the 1×1, 2×2 and 2×3 grids). The tile contents are bitwise-identical
// (per-tile compressor seeding) and the distributed update order matches
// the shared DAG's serialization, so the agreement is in fact much tighter.
func TestDistributedLogLikMatchesShared(t *testing.T) {
	if raceEnabled {
		t.Skip("heavy n=1600 run; the plain suite covers it, smaller distributed tests keep race coverage")
	}
	p := smallProblem(t, 1600, 7)
	base := Config{Mode: TLR, TileSize: 128, Accuracy: 1e-7, CompressorName: "rsvd", Workers: 2}
	th := theta()
	want, err := LogLikelihood(p, th, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, grid := range []int{1, 4, 6} {
		cfg := base
		cfg.Ranks = grid
		got, err := LogLikelihood(p, th, cfg)
		if err != nil {
			t.Fatalf("ranks %v: %v", grid, err)
		}
		if rel := math.Abs(got.Value-want.Value) / math.Abs(want.Value); rel > 1e-8 {
			t.Errorf("ranks %v: loglik %.10f vs shared %.10f (rel %.2e)", grid, got.Value, want.Value, rel)
		}
		if rel := math.Abs(got.LogDet-want.LogDet) / math.Abs(want.LogDet); rel > 1e-8 {
			t.Errorf("ranks %v: logdet %.10f vs shared %.10f (rel %.2e)", grid, got.LogDet, want.LogDet, rel)
		}
		if rel := math.Abs(got.QuadForm-want.QuadForm) / want.QuadForm; rel > 1e-8 {
			t.Errorf("ranks %v: quadform %.10f vs shared %.10f (rel %.2e)", grid, got.QuadForm, want.QuadForm, rel)
		}
		if got.MaxRank != want.MaxRank {
			t.Errorf("ranks %v: max rank %d vs shared %d", grid, got.MaxRank, want.MaxRank)
		}
		if math.Abs(got.MeanRank-want.MeanRank) > 1e-9 {
			t.Errorf("ranks %v: mean rank %g vs shared %g", grid, got.MeanRank, want.MeanRank)
		}
		if got.Bytes != want.Bytes {
			t.Errorf("ranks %v: bytes %d vs shared %d", grid, got.Bytes, want.Bytes)
		}
	}
}

// TestDistributedFitMatchesShared: the acceptance criterion that Fit with
// Ranks=4 recovers the same θ̂ as the shared-memory run. Likelihood values
// agree to rounding noise, so the deterministic Nelder-Mead search follows
// the same iterate sequence.
func TestDistributedFitMatchesShared(t *testing.T) {
	if raceEnabled {
		t.Skip("two full Nelder-Mead runs; the plain suite covers it")
	}
	p := smallProblem(t, 400, 8)
	base := Config{Mode: TLR, TileSize: 64, Accuracy: 1e-7, Workers: 2}
	opts := FitOptions{FixSmoothness: true, Start: theta(), MaxEvals: 60}
	want, err := Fit(p, base, opts)
	if err != nil {
		t.Fatal(err)
	}
	cfg := base
	cfg.Ranks = 4
	got, err := Fit(p, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got.Evals != want.Evals {
		t.Errorf("distributed fit took %d evals, shared %d", got.Evals, want.Evals)
	}
	relDiff := func(a, b float64) float64 { return math.Abs(a-b) / math.Max(math.Abs(b), 1e-12) }
	if relDiff(got.Theta.Variance, want.Theta.Variance) > 1e-6 ||
		relDiff(got.Theta.Range, want.Theta.Range) > 1e-6 {
		t.Errorf("distributed θ̂ %+v, shared θ̂ %+v", got.Theta, want.Theta)
	}
	if relDiff(got.LogL, want.LogL) > 1e-8 {
		t.Errorf("distributed logL %.10f, shared %.10f", got.LogL, want.LogL)
	}
}

// TestDistributedPredictMatchesShared checks the prediction pipelines
// (solve and half-solve paths) on the distributed backend.
func TestDistributedPredictMatchesShared(t *testing.T) {
	syn, err := GenerateSynthetic(420, 20, theta(), 9)
	if err != nil {
		t.Fatal(err)
	}
	p := syn.Train
	base := Config{Mode: TLR, TileSize: 64, Accuracy: 1e-7}
	th := theta()
	wantPred, err := Predict(p, syn.TestPoints, th, base)
	if err != nil {
		t.Fatal(err)
	}
	wantPV, err := PredictWithVariance(p, syn.TestPoints, th, base)
	if err != nil {
		t.Fatal(err)
	}

	cfg := base
	cfg.Ranks = 4
	gotPred, err := Predict(p, syn.TestPoints, th, cfg)
	if err != nil {
		t.Fatal(err)
	}
	gotPV, err := PredictWithVariance(p, syn.TestPoints, th, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantPred {
		if math.Abs(gotPred[i]-wantPred[i]) > 1e-8 {
			t.Fatalf("prediction %d: distributed %g shared %g", i, gotPred[i], wantPred[i])
		}
		if math.Abs(gotPV.Mean[i]-wantPV.Mean[i]) > 1e-8 {
			t.Fatalf("mean %d: distributed %g shared %g", i, gotPV.Mean[i], wantPV.Mean[i])
		}
		if math.Abs(gotPV.Variance[i]-wantPV.Variance[i]) > 1e-8 {
			t.Fatalf("variance %d: distributed %g shared %g", i, gotPV.Variance[i], wantPV.Variance[i])
		}
	}
}

// TestDistributedProfiledMatchesShared covers the concentrated-likelihood
// path on the distributed backend.
func TestDistributedProfiledMatchesShared(t *testing.T) {
	p := smallProblem(t, 400, 10)
	base := Config{Mode: TLR, TileSize: 64, Accuracy: 1e-7}
	wantL, wantVar, err := ProfiledLogLikelihood(p, 0.1, 0.5, base)
	if err != nil {
		t.Fatal(err)
	}
	cfg := base
	cfg.Ranks = 4
	gotL, gotVar, err := ProfiledLogLikelihood(p, 0.1, 0.5, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(gotL-wantL)/math.Abs(wantL) > 1e-8 {
		t.Errorf("profiled logL %.10f vs %.10f", gotL, wantL)
	}
	if math.Abs(gotVar-wantVar)/wantVar > 1e-8 {
		t.Errorf("profiled variance %.10g vs %.10g", gotVar, wantVar)
	}
}

// TestDistributedSessionReuse runs several evaluations through one
// distributed Session — the World and shards must be reused without
// cross-evaluation corruption, and CommStats must accumulate.
func TestDistributedSessionReuse(t *testing.T) {
	p := smallProblem(t, 400, 11)
	cfg := Config{Mode: TLR, TileSize: 64, Accuracy: 1e-7, Ranks: 6}
	s, err := NewSession(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewSession(p, Config{Mode: TLR, TileSize: 64, Accuracy: 1e-7})
	if err != nil {
		t.Fatal(err)
	}
	thetas := []struct{ v, r float64 }{{1, 0.1}, {1.4, 0.2}, {1, 0.1}}
	var prevSent int64 = -1
	for i, tv := range thetas {
		th := theta()
		th.Variance, th.Range = tv.v, tv.r
		got, err := s.LogLikelihood(th)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.LogLikelihood(th)
		if err != nil {
			t.Fatal(err)
		}
		if rel := math.Abs(got.Value-want.Value) / math.Abs(want.Value); rel > 1e-8 {
			t.Fatalf("eval %d: distributed %.10f shared %.10f (rel %.2e)", i, got.Value, want.Value, rel)
		}
		stats := s.CommStats()
		if len(stats) != 6 {
			t.Fatalf("CommStats returned %d ranks, want 6", len(stats))
		}
		var sent int64
		for _, st := range stats {
			sent += st.BytesSent
		}
		if sent <= prevSent {
			t.Fatalf("eval %d: traffic did not accumulate (%d after %d)", i, sent, prevSent)
		}
		prevSent = sent
	}
	if ref.CommStats() != nil {
		t.Fatal("shared-memory session must report nil CommStats")
	}
}
