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
