package core

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/chaos"
)

// TestElasticRecoveryFailureBudget: MaxRetries is a per-evaluation budget.
// Two deaths inside one evaluation — one on the 6-rank World, one on the
// 5-rank World its shrink builds — exhaust a budget of 1: the second is
// surfaced and the World stays at 5 ranks. A budget of 2 absorbs both and
// still matches the unfaulted run bitwise on the 4 ranks left; a death in a
// later evaluation draws on a fresh budget.
func TestElasticRecoveryFailureBudget(t *testing.T) {
	p := smallProblem(t, 240, 13)
	th := theta()
	clean := Config{Mode: TLR, TileSize: 32, Accuracy: 1e-7, Ranks: 6}
	want, err := LogLikelihood(p, th, clean)
	if err != nil {
		t.Fatal(err)
	}
	// armed builds the shards with a clean evaluation, then arms two kills:
	// rank 4 halfway through the DAG on those shards, and rank 1 a third of
	// the way through an injector, which only shards built after it carry —
	// the survivors'.
	dag := genCholeskyLen(p.N(), clean.TileSize)
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
		var first atomic.Bool
		db.shards[4].Inject = func(graphLen, taskID int) {
			if taskID >= dag/2 && !first.Swap(true) {
				panic(errors.New("first injected death"))
			}
		}
		db.inj = chaos.NewInjector(&chaos.FaultPlan{KillRank: 2, KillAtTask: dag / 3})
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
	// both kills have fired; the next evaluation runs clean on the 5 ranks
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
