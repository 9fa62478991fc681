package core

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/geom"
)

// fitAndPredict runs a short Fit plus a Predict on a fresh session and
// returns everything a bitwise-determinism comparison needs.
func fitAndPredict(t *testing.T, p *Problem, cfg Config, newPts []geom.Point) (*Session, FitResult, []float64) {
	t.Helper()
	s, err := NewSession(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fit, err := s.Fit(FitOptions{MaxEvals: 12, FixSmoothness: true, Start: theta()})
	if err != nil {
		t.Fatal(err)
	}
	pred, err := s.Predict(newPts, fit.Theta)
	if err != nil {
		t.Fatal(err)
	}
	return s, fit, pred
}

// TestChaosSharedFitBitwiseIdentical is the headline recovery guarantee:
// a shared-memory TLR fit with injected task panics and stragglers — healed
// by re-running the faulted evaluation from generation — produces bitwise the
// same estimate and predictions as the fault-free run.
func TestChaosSharedFitBitwiseIdentical(t *testing.T) {
	p := smallProblem(t, 120, 3)
	newPts := []geom.Point{{X: 0.41, Y: 0.43}, {X: 0.13, Y: 0.77}}
	base := Config{Mode: TLR, TileSize: 24, Accuracy: 1e-7, CompressorName: "rsvd", Workers: 4}

	_, wantFit, wantPred := fitAndPredict(t, p, base, newPts)

	cfg := base
	cfg.MaxRetries = 3 // per evaluation: all three victims may land in one
	cfg.Chaos = &chaos.FaultPlan{
		Seed:       1234,
		TaskPanics: 3,
		TaskDelays: 3,
		TaskDelay:  100 * time.Microsecond,
	}
	s, gotFit, gotPred := fitAndPredict(t, p, cfg, newPts)

	st := s.ChaosStats()
	if st.TaskPanics < 1 {
		t.Fatalf("no task panic was injected: %+v", st)
	}
	if gotFit.Theta != wantFit.Theta || gotFit.LogL != wantFit.LogL || gotFit.Evals != wantFit.Evals {
		t.Fatalf("fit under chaos diverged:\n got %+v\nwant %+v", gotFit, wantFit)
	}
	for i := range wantPred {
		if gotPred[i] != wantPred[i] {
			t.Fatalf("prediction %d diverged: %g vs %g", i, gotPred[i], wantPred[i])
		}
	}
	m := s.Metrics()
	if m.FactorFailures != 0 {
		t.Fatalf("recovered faults must not count as factor failures: %+v", m)
	}
}

// TestChaosDistBitwiseIdentical: message drops (retransmitted) and delays
// must not change a distributed evaluation by a single bit.
func TestChaosDistBitwiseIdentical(t *testing.T) {
	p := smallProblem(t, 96, 5)
	newPts := []geom.Point{{X: 0.3, Y: 0.6}}
	base := Config{Mode: TLR, TileSize: 16, Accuracy: 1e-7, CompressorName: "rsvd", Ranks: 4}

	ws, err := NewSession(p, base)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ws.LogLikelihood(theta())
	if err != nil {
		t.Fatal(err)
	}
	wantPred, err := ws.Predict(newPts, theta())
	if err != nil {
		t.Fatal(err)
	}

	cfg := base
	cfg.Chaos = &chaos.FaultPlan{
		Seed:          99,
		DropMessages:  4,
		DelayMessages: 4,
		MessageDelay:  50 * time.Microsecond,
	}
	cs, err := NewSession(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cs.LogLikelihood(theta())
	if err != nil {
		t.Fatal(err)
	}
	gotPred, err := cs.Predict(newPts, theta())
	if err != nil {
		t.Fatal(err)
	}

	st := cs.ChaosStats()
	if st.MessagesDropped < 1 {
		t.Fatalf("no message was dropped: %+v", st)
	}
	if got.Value != want.Value || got.LogDet != want.LogDet || got.QuadForm != want.QuadForm {
		t.Fatalf("distributed evaluation under chaos diverged:\n got %+v\nwant %+v", got, want)
	}
	if gotPred[0] != wantPred[0] {
		t.Fatalf("distributed prediction diverged: %g vs %g", gotPred[0], wantPred[0])
	}
}

// TestChaosRankKillSurfacesAndHeals kills one rank in its own world: the
// evaluation must fail in bounded time naming the rank, and the same session
// must evaluate cleanly afterwards (the kill budget is one).
func TestChaosRankKillSurfacesAndHeals(t *testing.T) {
	p := smallProblem(t, 64, 7)
	cfg := Config{
		Mode: TLR, TileSize: 16, Accuracy: 1e-7, Ranks: 4,
		Chaos: &chaos.FaultPlan{KillRank: 2},
	}
	s, err := NewSession(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = s.LogLikelihood(theta())
	if err == nil {
		t.Fatal("evaluation with a killed rank must fail")
	}
	if !strings.Contains(err.Error(), "rank 1") {
		t.Fatalf("failure should name rank 1: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 60*time.Second {
		t.Fatalf("rank failure took %v to surface", elapsed)
	}
	if st := s.ChaosStats(); st.RanksKilled != 1 {
		t.Fatalf("stats: %+v", st)
	}
	m := s.Metrics()
	if m.FactorFailures < 1 || m.LastFactorFailure == "" {
		t.Fatalf("metrics must record the failure: %+v", m)
	}

	// The injector's kill has fired; the healed world must now work.
	lik, err := s.LogLikelihood(theta())
	if err != nil {
		t.Fatalf("world did not heal after the rank kill: %v", err)
	}
	if math.IsNaN(lik.Value) || math.IsInf(lik.Value, 0) {
		t.Fatalf("degenerate likelihood after heal: %g", lik.Value)
	}
}

// TestChaosCompressMissDegradesGracefully: forced compression misses store
// tiles densely (exact) — the evaluation must survive and stay close to the
// unfaulted value.
func TestChaosCompressMissDegradesGracefully(t *testing.T) {
	p := smallProblem(t, 96, 11)
	base := Config{Mode: TLR, TileSize: 16, Accuracy: 1e-7, CompressorName: "svd"}
	ws, err := NewSession(p, base)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ws.LogLikelihood(theta())
	if err != nil {
		t.Fatal(err)
	}

	cfg := base
	cfg.Chaos = &chaos.FaultPlan{Seed: 5, CompressMisses: 3}
	s, err := NewSession(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.LogLikelihood(theta())
	if err != nil {
		t.Fatal(err)
	}
	if s.ChaosStats().CompressMisses < 1 {
		t.Fatal("no compression miss was forced")
	}
	// DE tiles are exact where compression truncates, so the value moves by
	// at most the compression-error scale.
	if rel := math.Abs(got.Value-want.Value) / math.Abs(want.Value); rel > 1e-4 {
		t.Fatalf("forced misses changed the likelihood by %g relative", rel)
	}
	// The storage footprint must reflect the changed representation (a DE
	// tile costs rows·cols·8 instead of the factored 2·nb·rank·8).
	if got.Bytes == want.Bytes {
		t.Fatalf("forced misses left the footprint unchanged at %d bytes", got.Bytes)
	}
}

// singularProblem is 32 locations in three exact copies each: a
// rank-deficient covariance that only the nugget makes positive definite.
func singularProblem(t *testing.T) *Problem {
	t.Helper()
	base := smallProblem(t, 32, 13)
	var pts []geom.Point
	var z []float64
	for i, pt := range base.Points {
		for c := 0; c < 3; c++ {
			pts = append(pts, pt)
			z = append(z, base.Z[i])
		}
	}
	p, err := NewProblem(pts, z, geom.Euclidean)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestNuggetEscalationRecoversSingularProblem: duplicated locations make Σ
// numerically singular at a tiny nugget; the escalation ladder must walk the
// regularization up until the factorization succeeds and record the climb.
func TestNuggetEscalationRecoversSingularProblem(t *testing.T) {
	p := singularProblem(t)
	for _, mode := range []Mode{FullBlock, FullTile} {
		// 1e-17 breaks down, and so does its first tenfold step; the ladder
		// (×10, at most three times) has to climb to 1e-15.
		cfg := Config{Mode: mode, TileSize: 16, Nugget: 1e-17}
		s, err := NewSession(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		lik, err := s.LogLikelihood(theta())
		if err != nil {
			t.Fatalf("%v: escalation failed to recover: %v", mode, err)
		}
		if lik.NuggetRetries < 1 {
			t.Fatalf("%v: factorization succeeded without escalation (retries=%d) — tighten the setup", mode, lik.NuggetRetries)
		}
		if lik.NuggetUsed <= 1e-17 {
			t.Fatalf("%v: NuggetUsed %g did not grow", mode, lik.NuggetUsed)
		}
		m := s.Metrics()
		if m.NuggetEscalations < 1 || m.FactorFailures < 1 || m.LastFactorFailure == "" {
			t.Fatalf("%v: metrics missed the degradation: %+v", mode, m)
		}
	}
}

// TestChaosConfigValidation covers the failure knobs' error paths.
func TestChaosConfigValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		want string // substring; "" = valid
	}{
		{"retries ok", Config{MaxRetries: 3}, ""},
		{"chaos ok", Config{Chaos: &chaos.FaultPlan{Seed: 1, TaskPanics: 2}}, ""},
		{"negative retries", Config{MaxRetries: -1}, "MaxRetries"},
		{"invalid chaos plan", Config{Chaos: &chaos.FaultPlan{TaskPanics: -1}}, "TaskPanics"},
	} {
		err := tc.cfg.Validate()
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want substring %q", tc.name, err, tc.want)
		}
	}
}
