package core

import (
	"math"
	"testing"

	"repro/internal/cov"
)

// newTestEvaluator builds the evaluator for cfg and returns it without its
// Session — the reuse contracts below are properties of the evaluator itself.
func newTestEvaluator(t *testing.T, p *Problem, cfg Config) *evaluator {
	t.Helper()
	s, err := NewSession(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s.ev
}

// factorize factors Σ(θ) under a shared-memory cfg on a fresh evaluator and
// returns the factor, which stays valid because nothing factors after it.
func factorize(t *testing.T, p *Problem, th cov.Params, cfg Config) Factor {
	t.Helper()
	ev := newTestEvaluator(t, p, cfg)
	var f Factor
	err := ev.withFactor(cov.NewKernel(th), ev.cfg.nugget(th.Variance), func(g Factor) error {
		f = g
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// Likelihoods from one reused evaluator must match fresh single-shot
// evaluations across a sweep of θ — the reused Σ buffer / tile graph may
// leave no trace of the previous parameters.
func TestEvaluatorReuseMatchesFresh(t *testing.T) {
	p := smallProblem(t, 150, 3)
	thetas := []cov.Params{
		{Variance: 1, Range: 0.1, Smoothness: 0.5},
		{Variance: 2.5, Range: 0.05, Smoothness: 1.5},
		{Variance: 0.7, Range: 0.3, Smoothness: 0.5},
		{Variance: 1, Range: 0.1, Smoothness: 0.5}, // revisit the first point
	}
	for _, cfg := range []Config{
		{Mode: FullBlock, Workers: 3},
		{Mode: FullTile, TileSize: 32, Workers: 3},
		{Mode: HODLR, TileSize: 32, Workers: 3},
	} {
		ev := newTestEvaluator(t, p, cfg)
		for _, th := range thetas {
			got, err := ev.LogLikelihood(th)
			if err != nil {
				t.Fatalf("%v θ=%v: %v", cfg.Mode, th, err)
			}
			want, err := LogLikelihood(p, th, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got.Value-want.Value) > 1e-8*math.Abs(want.Value) {
				t.Fatalf("%v θ=%v: reused evaluator %.12g vs fresh %.12g", cfg.Mode, th, got.Value, want.Value)
			}
			if got.LogDet != want.LogDet || got.QuadForm != want.QuadForm {
				t.Fatalf("%v θ=%v: diagnostics drift: logdet %g vs %g, quad %g vs %g",
					cfg.Mode, th, got.LogDet, want.LogDet, got.QuadForm, want.QuadForm)
			}
		}
	}
}

func TestEvaluatorProfiledReuseMatchesFresh(t *testing.T) {
	p := smallProblem(t, 120, 4)
	cfg := Config{Mode: FullTile, TileSize: 32, Workers: 2}
	ev := newTestEvaluator(t, p, cfg)
	for _, rangeP := range []float64{0.05, 0.2, 0.1} {
		gotL, gotV, err := ev.ProfiledLogLikelihood(rangeP, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		wantL, wantV, err := ProfiledLogLikelihood(p, rangeP, 0.5, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(gotL-wantL) > 1e-8*math.Abs(wantL) || math.Abs(gotV-wantV) > 1e-8*wantV {
			t.Fatalf("range=%g: reused (%g, %g) vs fresh (%g, %g)", rangeP, gotL, gotV, wantL, wantV)
		}
	}
}

// The TLR evaluator reuses the tile shell and fused generate+compress+factor
// graph across calls; only ranks and contents are rebuilt per θ. Repeated
// evaluations at one θ must therefore be bitwise-identical, and every reused
// evaluation must match a fresh single-shot one exactly.
func TestEvaluatorTLRReuseBitwise(t *testing.T) {
	p := smallProblem(t, 150, 3)
	thetas := []cov.Params{
		{Variance: 1, Range: 0.1, Smoothness: 0.5},
		{Variance: 2.5, Range: 0.05, Smoothness: 1.5},
		{Variance: 1, Range: 0.1, Smoothness: 0.5}, // revisit the first point
	}
	for _, comp := range []string{"svd", "rsvd"} {
		cfg := Config{Mode: TLR, TileSize: 32, Accuracy: 1e-8, Workers: 3, CompressorName: comp}
		ev := newTestEvaluator(t, p, cfg)
		for _, th := range thetas {
			got, err := ev.LogLikelihood(th)
			if err != nil {
				t.Fatalf("%s θ=%v: %v", comp, th, err)
			}
			again, err := ev.LogLikelihood(th)
			if err != nil {
				t.Fatal(err)
			}
			if got.Value != again.Value || got.LogDet != again.LogDet || got.QuadForm != again.QuadForm {
				t.Fatalf("%s θ=%v: repeated factorize on the reused graph drifted: %.17g vs %.17g",
					comp, th, got.Value, again.Value)
			}
			want, err := LogLikelihood(p, th, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got.Value != want.Value || got.LogDet != want.LogDet || got.QuadForm != want.QuadForm {
				t.Fatalf("%s θ=%v: reused evaluator %.17g vs fresh %.17g", comp, th, got.Value, want.Value)
			}
		}
	}
}

// A failed factorization (absurd θ driving Σ numerically non-SPD) must not
// poison the evaluator for subsequent good evaluations.
func TestEvaluatorRecoversAfterFactorizationError(t *testing.T) {
	p := smallProblem(t, 100, 5)
	for _, cfg := range []Config{
		{Mode: FullBlock},
		{Mode: FullTile, TileSize: 32, Workers: 2},
		{Mode: TLR, TileSize: 32, Accuracy: 1e-10, Workers: 2},
		{Mode: HODLR, TileSize: 32, Accuracy: 1e-10, Workers: 2},
	} {
		ev := newTestEvaluator(t, p, cfg)
		good := cov.Params{Variance: 1, Range: 0.1, Smoothness: 0.5}
		before, err := ev.LogLikelihood(good)
		if err != nil {
			t.Fatal(err)
		}
		// Huge range makes all correlations ≈1: numerically singular.
		if _, err := ev.LogLikelihood(cov.Params{Variance: 1, Range: 1e8, Smoothness: 0.5}); err == nil {
			t.Skipf("%v: near-singular Σ unexpectedly factored; cannot exercise recovery", cfg.Mode)
		}
		after, err := ev.LogLikelihood(good)
		if err != nil {
			t.Fatalf("%v: evaluator broken after failed factorization: %v", cfg.Mode, err)
		}
		if math.Abs(after.Value-before.Value) > 1e-8*math.Abs(before.Value) {
			t.Fatalf("%v: likelihood drifted after failure: %g vs %g", cfg.Mode, after.Value, before.Value)
		}
	}
}
