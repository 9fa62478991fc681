package core

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/chaos"
)

// elasticCfg is the 6-rank distributed configuration the recovery tests
// drill: one injected kill at the start of Cholesky panel `panel` of the
// victim, and a replay budget of one per evaluation.
func elasticCfg(victim, panel int) Config {
	return Config{
		Mode: TLR, TileSize: 32, Accuracy: 1e-7, Ranks: 6,
		MaxRetries: 1,
		Chaos:      &chaos.FaultPlan{KillRank: victim + 1, KillAtPanel: panel + 1},
	}
}

// TestElasticRecoveryLogLikBitwise: a 6-rank likelihood evaluation that
// loses one rank mid-Cholesky completes on the 5 survivors with a value
// bitwise-identical to the unfaulted run, and the session reports the
// absorbed death. Small enough to stay in the -race suite.
func TestElasticRecoveryLogLikBitwise(t *testing.T) {
	p := smallProblem(t, 240, 13)
	th := theta()
	clean := Config{Mode: TLR, TileSize: 32, Accuracy: 1e-7, Ranks: 6}
	want, err := LogLikelihood(p, th, clean)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		victim int
		panel  int
	}{
		{"mid-panel", 4, 3},
		{"root-death", 0, 3},
		{"run-entry", 2, -1}, // KillAtPanel=0: the legacy run-entry kill site
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := NewSession(p, elasticCfg(tc.victim, tc.panel))
			if err != nil {
				t.Fatal(err)
			}
			got, err := s.LogLikelihood(th)
			if err != nil {
				t.Fatalf("faulted evaluation did not recover: %v", err)
			}
			if got.Value != want.Value || got.LogDet != want.LogDet || got.QuadForm != want.QuadForm {
				t.Errorf("recovered loglik (%.17g, %.17g, %.17g) != unfaulted (%.17g, %.17g, %.17g)",
					got.Value, got.LogDet, got.QuadForm, want.Value, want.LogDet, want.QuadForm)
			}
			if m := s.Metrics(); m.RanksLost != 1 || m.Replays != 1 {
				t.Errorf("Metrics RanksLost = %d, Replays = %d, want 1 and 1", m.RanksLost, m.Replays)
			}
			// an absorbed death spends a replay, not a step of the nugget ladder
			if got.NuggetRetries != 0 || got.NuggetUsed != want.NuggetUsed {
				t.Errorf("recovered run reports NuggetUsed=%g NuggetRetries=%d, unfaulted %g and 0",
					got.NuggetUsed, got.NuggetRetries, want.NuggetUsed)
			}
			// the shrunken world must keep serving: a second evaluation on
			// the survivors still matches bitwise
			again, err := s.LogLikelihood(th)
			if err != nil {
				t.Fatalf("post-recovery evaluation failed: %v", err)
			}
			if again.Value != want.Value {
				t.Errorf("post-recovery loglik %.17g != unfaulted %.17g", again.Value, want.Value)
			}
		})
	}
}

// TestElasticRecoveryDisabledStillFails: with MaxRetries == 0 the same
// injected kill is fatal — the session reports the injected fault instead of
// silently shrinking.
func TestElasticRecoveryDisabledStillFails(t *testing.T) {
	p := smallProblem(t, 240, 13)
	cfg := elasticCfg(4, 3)
	cfg.MaxRetries = 0
	s, err := NewSession(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.LogLikelihood(theta()); err == nil {
		t.Fatal("kill with MaxRetries == 0 must fail the evaluation")
	} else if !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("error %v does not wrap the injected fault", err)
	}
	if m := s.Metrics(); m.RanksLost != 0 || m.Replays != 0 {
		t.Fatalf("a surfaced death must not shrink the world: %+v", m)
	}
}

// TestElasticRecoveryFailureBudget: MaxRetries is a per-evaluation budget.
// Two deaths inside one evaluation exhaust a budget of 1 — the second is
// surfaced and its rank stays a member — while a budget of 2 absorbs both
// and still matches the unfaulted run bitwise; a death in a later evaluation
// draws on a fresh budget.
func TestElasticRecoveryFailureBudget(t *testing.T) {
	p := smallProblem(t, 240, 13)
	th := theta()
	clean := Config{Mode: TLR, TileSize: 32, Accuracy: 1e-7, Ranks: 6}
	want, err := LogLikelihood(p, th, clean)
	if err != nil {
		t.Fatal(err)
	}
	// armed builds the shards with a clean evaluation, then arms two kills:
	// rank 4 at panel 3, and rank 1 at panel 2 of whichever run comes after.
	armed := func(budget int) *Session {
		cfg := clean
		cfg.MaxRetries = budget
		s, err := NewSession(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.LogLikelihood(th); err != nil {
			t.Fatal(err)
		}
		db := s.ranks()
		var first, second atomic.Bool
		db.shards[4].PanelHook = func(rank, panel int) {
			if panel == 3 && !first.Swap(true) {
				panic(errors.New("first injected death"))
			}
		}
		db.shards[1].PanelHook = func(rank, panel int) {
			if panel == 2 && first.Load() && !second.Swap(true) {
				panic(errors.New("second injected death"))
			}
		}
		return s
	}

	s := armed(1)
	_, err = s.LogLikelihood(th)
	if err == nil {
		t.Fatal("a second death past the evaluation's budget must fail it")
	}
	if !strings.Contains(err.Error(), "rank 1") {
		t.Fatalf("the surfaced failure should name rank 1: %v", err)
	}
	if d := s.Metrics(); d.RanksLost != 1 || d.Replays != 1 {
		t.Fatalf("RanksLost = %d, Replays = %d, want the budget 1", d.RanksLost, d.Replays)
	}
	// both kills have fired; the next evaluation runs clean on the 5 survivors
	again, err := s.LogLikelihood(th)
	if err != nil {
		t.Fatalf("evaluation after the exhausted budget failed: %v", err)
	}
	if again.Value != want.Value {
		t.Errorf("post-failure loglik %.17g != unfaulted %.17g", again.Value, want.Value)
	}

	s = armed(2)
	got, err := s.LogLikelihood(th)
	if err != nil {
		t.Fatalf("a budget of 2 must absorb both deaths: %v", err)
	}
	if got.Value != want.Value || got.LogDet != want.LogDet || got.QuadForm != want.QuadForm {
		t.Errorf("loglik on 4 survivors (%.17g, %.17g, %.17g) != unfaulted (%.17g, %.17g, %.17g)",
			got.Value, got.LogDet, got.QuadForm, want.Value, want.LogDet, want.QuadForm)
	}
	if d := s.Metrics(); d.RanksLost != 2 || d.Replays != 2 {
		t.Fatalf("RanksLost = %d, Replays = %d, want 2 and 2", d.RanksLost, d.Replays)
	}
}

// TestElasticFitAndPredictMatchUnfaulted is the tentpole acceptance test: a
// 6-rank Fit that loses a rank mid-Cholesky completes on 5 survivors with
// θ̂, log-likelihood, and predictions bitwise-identical to the unfaulted
// 6-rank fit, without restarting the process.
func TestElasticFitAndPredictMatchUnfaulted(t *testing.T) {
	if raceEnabled {
		t.Skip("two full Nelder-Mead runs; TestElasticRecoveryLogLikBitwise keeps race coverage")
	}
	syn, err := GenerateSynthetic(400, 40, theta(), 17)
	if err != nil {
		t.Fatal(err)
	}
	p := syn.Train
	opts := FitOptions{FixSmoothness: true, Start: theta(), MaxEvals: 60}
	clean := Config{Mode: TLR, TileSize: 64, Accuracy: 1e-7, Ranks: 6}
	want, err := Fit(p, clean, opts)
	if err != nil {
		t.Fatal(err)
	}
	wantPred, err := Predict(p, syn.TestPoints, want.Theta, clean)
	if err != nil {
		t.Fatal(err)
	}

	cfg := elasticCfg(3, 3)
	cfg.TileSize = 64
	got, err := Fit(p, cfg, opts)
	if err != nil {
		t.Fatalf("faulted fit did not recover: %v", err)
	}
	if got.Theta != want.Theta {
		t.Errorf("recovered θ̂ %+v != unfaulted %+v", got.Theta, want.Theta)
	}
	if got.LogL != want.LogL {
		t.Errorf("recovered logL %.17g != unfaulted %.17g", got.LogL, want.LogL)
	}
	if got.Evals != want.Evals {
		t.Errorf("recovered fit took %d evals, unfaulted %d", got.Evals, want.Evals)
	}
	gotPred, err := Predict(p, syn.TestPoints, got.Theta, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range gotPred {
		if gotPred[i] != wantPred[i] {
			t.Fatalf("prediction %d: recovered %.17g != unfaulted %.17g", i, gotPred[i], wantPred[i])
		}
	}
}
