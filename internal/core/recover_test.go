package core

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/cov"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/runtime"
	"repro/internal/tlr"
)

// oracleProblem builds the recovery oracle's datasets: the paper's jittered
// grid ("uniform") or Gaussian blobs ("clustered"), with a field sampled at
// theta() over the locations.
func oracleProblem(t *testing.T, geometry string, n int, seed uint64) *Problem {
	t.Helper()
	var pts []geom.Point
	var z []float64
	switch geometry {
	case "uniform":
		pts, z = rawDataset(t, n, seed)
	case "clustered":
		pts = geom.GenerateClustered(n, 6, 0.03, rng.New(seed))
		var err error
		if z, err = cov.SampleField(cov.NewKernel(theta()), pts, geom.Euclidean, rng.New(seed+1)); err != nil {
			t.Fatal(err)
		}
	default:
		t.Fatalf("unknown geometry %q", geometry)
	}
	p, err := NewProblem(pts, z, geom.Euclidean)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// genCholeskyLen is the length of the generate+factor DAG of an n×n matrix
// in nb tiles: the task IDs a FaultPlan's KillAtTask counts in.
func genCholeskyLen(n, nb int) int {
	return tlr.BuildGenCholeskyGraph(tlr.NewMatrix(n, nb, 0), &tlr.GenSpec{}, false).Len()
}

// panicVictims returns the first two tasks, in ID order, of a graphLen-task
// DAG that plan's injector panics on.
func panicVictims(plan chaos.FaultPlan, graphLen int) (a, b int) {
	in := chaos.NewInjector(&plan)
	var ids []int
	for id := 0; id < graphLen; id++ {
		func() {
			defer func() {
				if recover() != nil {
					ids = append(ids, id)
				}
			}()
			in.TaskHook(graphLen, id)
		}()
	}
	return ids[0], ids[1]
}

// downstream reports whether task b of the n×n, nb-tile generate+factor DAG
// depends, through any chain, on task a.
func downstream(n, nb, a, b int) bool {
	tasks := tlr.BuildGenCholeskyGraph(tlr.NewMatrix(n, nb, 0), &tlr.GenSpec{}, false).Tasks()
	seen := map[int]bool{}
	var reaches func(id int) bool
	reaches = func(id int) bool {
		if id == a {
			return true
		}
		if seen[id] {
			return false
		}
		seen[id] = true
		return slices.ContainsFunc(tasks[id].Deps(), reaches)
	}
	return reaches(b)
}

// factorRuns returns how many generate+factor executions ran since before.
func factorRuns(before obs.Snapshot) int64 {
	return obs.Default().Snapshot().Sub(before).Counters["core.factor.runs"]
}

// sameEvaluation reports whether two evaluations agree bitwise in everything
// a faulted run must reproduce: the value and its two terms, and the nugget
// the factorization ended up using.
func sameEvaluation(got, want LikResult) bool {
	return got.Value == want.Value && got.LogDet == want.LogDet && got.QuadForm == want.QuadForm &&
		got.NuggetUsed == want.NuggetUsed && got.NuggetRetries == want.NuggetRetries
}

// TestRecoveryOracle is the one check of the one recovery rule (recoverLoop):
// a faulted evaluation is re-run from (geometry, θ, nugget, tile seed) and is
// bitwise the clean one — on every shared-memory backend under injected task
// panics, and on ranks under a rank death at each kill site and under the
// same task panics and delays — a fault past the budget surfaces as the
// injected error, and a numerical breakdown is never replayed at the nugget
// that broke down.
func TestRecoveryOracle(t *testing.T) {
	const n, nb = 192, 24
	th := theta()

	type row struct {
		name string
		cfg  Config
	}
	// The compressed rows are named after rsvd, the compressor they run.
	rows := []row{
		{"full-tile", Config{Mode: FullTile}},
		{"hodlr/rsvd", Config{Mode: HODLR}},
		{"tlr/rsvd", Config{Mode: TLR}},
		{"tlr+membudget/rsvd", Config{Mode: TLR, MemBudget: tlr.MinMemBudget(nb, 2)}},
	}
	plan := chaos.FaultPlan{Seed: 77, TaskPanics: 3, TaskDelays: 2, TaskDelay: 50 * time.Microsecond}

	for _, geometry := range []string{"uniform", "clustered"} {
		p := oracleProblem(t, geometry, n, 31)
		for _, r := range rows {
			t.Run("shared/"+geometry+"/"+r.name, func(t *testing.T) {
				base := r.cfg
				base.TileSize, base.Accuracy, base.Workers = nb, 1e-7, 2
				cs, err := NewSession(p, base)
				if err != nil {
					t.Fatal(err)
				}
				defer cs.Close()
				want, err := cs.LogLikelihood(th)
				if err != nil {
					t.Fatal(err)
				}

				cfg := base
				cfg.MaxRetries = plan.TaskPanics // all victims may land in one evaluation
				cfg.Chaos = &plan
				s, err := NewSession(p, cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				before := obs.Default().Snapshot()
				got, err := s.LogLikelihood(th)
				if err != nil {
					t.Fatalf("faulted evaluation did not recover: %v", err)
				}
				if !sameEvaluation(got, want) {
					t.Errorf("recovered evaluation %+v != clean %+v", got, want)
				}
				m := s.Metrics()
				// a successful run executed every task, so every victim fired
				// before it, each in a run that aborted
				if st := s.ChaosStats(); st.TaskPanics != int64(plan.TaskPanics) {
					t.Errorf("%d panics injected, want %d", st.TaskPanics, plan.TaskPanics)
				}
				if m.Replays < 1 || m.Replays > int64(plan.TaskPanics) {
					t.Errorf("Replays = %d, want 1..%d", m.Replays, plan.TaskPanics)
				}
				if runs := factorRuns(before); runs != 1+int64(got.NuggetRetries)+m.Replays {
					t.Errorf("core.factor.runs = %d, want 1 + %d escalations + %d replays", runs, got.NuggetRetries, m.Replays)
				}
				if m.FactorFailures != cs.Metrics().FactorFailures {
					t.Errorf("a replayed fault counted as a factor failure: %d, clean run %d", m.FactorFailures, cs.Metrics().FactorFailures)
				}
				if cfg.MemBudget > 0 {
					if _, spilled, ok := s.StoreStats(); !ok || spilled == 0 {
						t.Errorf("the budget forced no spill (ok=%v, spilled=%d): the out-of-core path was not exercised", ok, spilled)
					}
				}
				// the graph an abort left behind keeps serving
				again, err := s.LogLikelihood(th)
				if err != nil {
					t.Fatal(err)
				}
				if !sameEvaluation(again, want) {
					t.Errorf("evaluation after recovery %+v != clean %+v", again, want)
				}

				// No budget: the first victim surfaces as the injected fault.
				cfg.MaxRetries = 0
				s0, err := NewSession(p, cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer s0.Close()
				_, err = s0.LogLikelihood(th)
				var tp *runtime.TaskPanic
				if !errors.Is(err, chaos.ErrInjected) || !errors.As(err, &tp) {
					t.Fatalf("MaxRetries == 0: error %v does not wrap the injected task panic", err)
				}
				if m := s0.Metrics(); m.Replays != 0 || m.FactorFailures != 1 {
					t.Errorf("MaxRetries == 0: %+v, want no replay and one factor failure", m)
				}
			})
		}
	}

	// Ranks: one death per kill site, on a geometry the elastic tests do not
	// use.
	p := oracleProblem(t, "clustered", n, 37)
	clean := Config{Mode: TLR, TileSize: 32, Accuracy: 1e-7, Ranks: 6}
	newPts := []geom.Point{{X: 0.41, Y: 0.43}, {X: 0.13, Y: 0.77}}
	cs, err := NewSession(p, clean)
	if err != nil {
		t.Fatal(err)
	}
	want, err := cs.LogLikelihood(th)
	if err != nil {
		t.Fatal(err)
	}
	wantPred, err := cs.Predict(newPts, th)
	if err != nil {
		t.Fatal(err)
	}
	dag := genCholeskyLen(p.N(), clean.TileSize)
	for _, site := range []struct {
		name         string
		victim, task int // the victim dies before its first task ≥ task
	}{
		{"run-entry", 2, 0},
		{"mid-panel", 4, dag / 2},
		{"root", 0, dag / 3},
	} {
		t.Run("ranks/"+site.name, func(t *testing.T) {
			cfg := clean
			cfg.MaxRetries = 1
			cfg.Chaos = &chaos.FaultPlan{KillRank: site.victim + 1, KillAtTask: site.task}
			s, err := NewSession(p, cfg)
			if err != nil {
				t.Fatal(err)
			}
			before := obs.Default().Snapshot()
			got, err := s.LogLikelihood(th)
			if err != nil {
				t.Fatalf("faulted evaluation did not recover: %v", err)
			}
			if !sameEvaluation(got, want) {
				t.Errorf("recovered evaluation %+v != clean %+v", got, want)
			}
			if runs := factorRuns(before); runs != 2 {
				t.Errorf("core.factor.runs = %d, want the aborted run and its replay", runs)
			}
			if m := s.Metrics(); m.Replays != 1 || m.RanksLost != 1 || m.FactorFailures != 0 || m.NuggetEscalations != 0 {
				t.Errorf("metrics %+v, want one replay, one rank lost, no failure, no escalation", m)
			}
			// the survivors keep serving
			pred, err := s.Predict(newPts, th)
			if err != nil {
				t.Fatal(err)
			}
			for i := range pred {
				if pred[i] != wantPred[i] {
					t.Errorf("prediction %d on the survivors: %.17g != unfaulted %.17g", i, pred[i], wantPred[i])
				}
			}

			// No budget: the death surfaces, names the rank, shrinks nothing.
			cfg.MaxRetries = 0
			s0, err := NewSession(p, cfg)
			if err != nil {
				t.Fatal(err)
			}
			_, err = s0.LogLikelihood(th)
			if !errors.Is(err, chaos.ErrInjected) || !strings.Contains(err.Error(), fmt.Sprintf("rank %d", site.victim)) {
				t.Fatalf("MaxRetries == 0: error %v does not wrap the injected fault and name rank %d", err, site.victim)
			}
			if m := s0.Metrics(); m.Replays != 0 || m.RanksLost != 0 {
				t.Errorf("MaxRetries == 0: %+v, want nothing absorbed", m)
			}
		})
	}

	// A death inside the *use* of a finished factor — the solve of an uncached
	// predict — fails the attempt like a death while factoring, and the replay
	// factors again on the survivors before it solves.
	t.Run("ranks/predict-solve", func(t *testing.T) {
		const victim = 3
		cfg := clean
		cfg.MaxRetries = 1
		cfg.Chaos = &chaos.FaultPlan{KillRank: victim + 1, KillAtTask: dag}
		s, err := NewSession(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		before := obs.Default().Snapshot()
		pred, err := s.Predict(newPts, th)
		if err != nil {
			t.Fatalf("faulted predict did not recover: %v", err)
		}
		for i := range pred {
			if pred[i] != wantPred[i] {
				t.Errorf("prediction %d replayed on the survivors: %.17g != unfaulted %.17g", i, pred[i], wantPred[i])
			}
		}
		if runs := factorRuns(before); runs != 2 {
			t.Errorf("core.factor.runs = %d, want the run whose solve died and its replay", runs)
		}
		if m := s.Metrics(); m.Replays != 1 || m.RanksLost != 1 || m.FactorFailures != 0 || s.ChaosStats().RanksKilled != 1 {
			t.Errorf("metrics %+v, want one replay, one rank lost, no failure", m)
		}
		if got, err := s.LogLikelihood(th); err != nil || !sameEvaluation(got, want) {
			t.Errorf("evaluation on the survivors %+v (err %v) != clean %+v", got, err, want)
		}

		cfg.MaxRetries = 0
		s0, err := NewSession(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		_, err = s0.Predict(newPts, th)
		if !errors.Is(err, chaos.ErrInjected) || !strings.Contains(err.Error(), fmt.Sprintf("rank %d", victim)) {
			t.Fatalf("MaxRetries == 0: error %v does not wrap the injected fault and name rank %d", err, victim)
		}
		if m := s0.Metrics(); m.Replays != 0 || m.RanksLost != 0 {
			t.Errorf("MaxRetries == 0: %+v, want nothing absorbed", m)
		}
	})

	// Task faults strike the ranks' walk of the DAG as they strike the worker
	// pool: a panic kills the rank running the task, a delay makes it a
	// straggler. The seed puts the second panic victim downstream of the
	// first, so the two land in different runs: two deaths, two shrinks.
	t.Run("ranks/task-faults", func(t *testing.T) {
		plan := chaos.FaultPlan{Seed: 2, TaskPanics: 2, TaskDelays: 2, TaskDelay: 50 * time.Microsecond}
		if a, b := panicVictims(plan, dag); !downstream(p.N(), clean.TileSize, a, b) {
			t.Fatalf("panic victims %d and %d are independent tasks: pick a seed that chains them", a, b)
		}
		cfg := clean
		cfg.MaxRetries = 2
		cfg.Chaos = &plan
		s, err := NewSession(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.LogLikelihood(th)
		if err != nil {
			t.Fatalf("faulted evaluation did not recover: %v", err)
		}
		if !sameEvaluation(got, want) {
			t.Errorf("recovered evaluation %+v != clean %+v", got, want)
		}
		pred, err := s.Predict(newPts, th)
		if err != nil {
			t.Fatal(err)
		}
		for i := range pred {
			if pred[i] != wantPred[i] {
				t.Errorf("prediction %d on the survivors: %.17g != unfaulted %.17g", i, pred[i], wantPred[i])
			}
		}
		st, m := s.ChaosStats(), s.Metrics()
		if st.TaskPanics != 2 || st.TaskDelays != 2 || st.RanksKilled != 0 {
			t.Errorf("chaos %+v, want 2 task panics, 2 task delays, no planned kill", st)
		}
		if m.RanksLost != 2 || m.Replays != 2 || m.FactorFailures != 0 {
			t.Errorf("%d ranks lost, %d replays, %d failures; want two ranks lost in two replays, no failure",
				m.RanksLost, m.Replays, m.FactorFailures)
		}
	})

	// A breakdown is a property of (θ, nugget): with replay budget to spare it
	// must still go up the ladder, never re-run where it broke down.
	sing := singularProblem(t)
	for _, cfg := range []Config{
		{Mode: FullBlock},
		{Mode: FullTile, TileSize: 16, Workers: 2},
		{Mode: TLR, TileSize: 16, Accuracy: 1e-12, Ranks: 4},
	} {
		mode := cfg.Mode.String()
		if cfg.Ranks > 1 {
			mode += "/ranks"
		}
		t.Run("non-spd/"+mode, func(t *testing.T) {
			cfg.Nugget, cfg.MaxRetries = 1e-17, 5
			s, err := NewSession(sing, cfg)
			if err != nil {
				t.Fatal(err)
			}
			before := obs.Default().Snapshot()
			lik, err := s.LogLikelihood(th)
			m := s.Metrics()
			if m.NuggetEscalations < 1 {
				t.Fatalf("no breakdown at nugget 1e-17 (err %v) — tighten the setup", err)
			}
			if err == nil && int64(lik.NuggetRetries) != m.NuggetEscalations {
				t.Errorf("NuggetRetries = %d, escalations = %d", lik.NuggetRetries, m.NuggetEscalations)
			}
			if runs := factorRuns(before); m.Replays != 0 || runs != 1+m.NuggetEscalations {
				t.Errorf("core.factor.runs = %d with %d escalations and %d replays, want 1 + escalations and no replay",
					runs, m.NuggetEscalations, m.Replays)
			}
		})
	}
}
