package core

import (
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/cov"
	"repro/internal/geom"
	"repro/internal/rng"
	"repro/internal/tlr"
)

// rawDataset builds a caller-order dataset (no ordering applied) with a
// sampled Matérn field.
func rawDataset(t *testing.T, n int, seed uint64) ([]geom.Point, []float64) {
	t.Helper()
	r := rng.New(seed)
	pts := geom.GeneratePerturbedGrid(n, r)
	k := cov.NewKernel(theta())
	z, err := cov.SampleField(k, pts, geom.Euclidean, r.Split(1))
	if err != nil {
		t.Fatal(err)
	}
	return pts, z
}

// TestNewProblemKeepsCallerOrder: a Problem holds the caller's data in the
// caller's order, and a copy of it.
func TestNewProblemKeepsCallerOrder(t *testing.T) {
	pts, z := rawDataset(t, 144, 21)
	p, err := NewProblem(pts, z, geom.Euclidean)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pts {
		if p.Points[i] != pts[i] || p.Z[i] != z[i] {
			t.Fatalf("NewProblem moved observation %d", i)
		}
	}
	pts[0].X, z[0] = -1, 99
	if p.Points[0].X == -1 || p.Z[0] == 99 {
		t.Fatal("NewProblem aliases the caller's slices")
	}
}

// TestConfigOrderingValidation: unknown names are rejected, registered names
// and the empty default pass.
func TestConfigOrderingValidation(t *testing.T) {
	for _, name := range append([]string{""}, geom.OrderingNames()...) {
		cfg := Config{Ordering: name}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("Ordering %q rejected: %v", name, err)
		}
	}
	err := Config{Ordering: "zigzag"}.Validate()
	if err == nil || !strings.Contains(err.Error(), "unknown ordering") {
		t.Fatalf("unknown ordering error = %v", err)
	}
}

// TestSessionAppliesConfiguredOrdering: a session runs on the caller's points sorted by
// its ordering — an empty Ordering is KD blocks at TileSize under TLR
// (shared, out of core and on ranks) and Morton in every other mode; an
// explicit name is honoured — on a private copy, leaving the caller's
// Problem untouched. A permutation that moves no point copies nothing.
func TestSessionAppliesConfiguredOrdering(t *testing.T) {
	pts, z := rawDataset(t, 300, 31)
	p, err := NewProblem(pts, z, geom.Euclidean)
	if err != nil {
		t.Fatal(err)
	}
	const nb = 40
	if slices.Equal(geom.Sorted(geom.KDBlocks(nb), pts), geom.Sorted(geom.Morton, pts)) {
		t.Fatal("KD blocks and Morton agree on this set: the test shows nothing")
	}
	for _, c := range []struct {
		name string
		cfg  Config
		want geom.Ordering
	}{
		{"full-block", Config{Mode: FullBlock}, geom.Morton},
		{"full-tile", Config{Mode: FullTile, TileSize: nb}, geom.Morton},
		{"tlr", Config{Mode: TLR, TileSize: nb, Accuracy: 1e-7}, geom.KDBlocks(nb)},
		{"tlr+membudget", Config{Mode: TLR, TileSize: nb, Accuracy: 1e-7, MemBudget: tlr.MinMemBudget(nb, 1)}, geom.KDBlocks(nb)},
		{"ranks4", Config{Mode: TLR, TileSize: nb, Accuracy: 1e-7, Ranks: 4}, geom.KDBlocks(nb)},
		{"hodlr", Config{Mode: HODLR, TileSize: nb, Accuracy: 1e-7}, geom.Morton},
		{"tlr/none", Config{Mode: TLR, TileSize: nb, Accuracy: 1e-7, Ordering: geom.OrderNone}, geom.None},
		{"full-block/none", Config{Mode: FullBlock, Ordering: geom.OrderNone}, geom.None},
		{"tlr/hilbert", Config{Mode: TLR, TileSize: nb, Accuracy: 1e-7, Ordering: geom.OrderHilbert}, geom.Hilbert},
		{"hodlr/hilbert", Config{Mode: HODLR, TileSize: nb, Accuracy: 1e-7, Ordering: geom.OrderHilbert}, geom.Hilbert},
		{"tlr/morton", Config{Mode: TLR, TileSize: nb, Accuracy: 1e-7, Ordering: geom.OrderMorton}, geom.Morton},
	} {
		s, err := NewSession(p, c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.Config().Ordering; got != c.want.Name() {
			t.Errorf("%s: Config().Ordering %q, want %q", c.name, got, c.want.Name())
		}
		perm := c.want.Permutation(pts)
		q := s.Problem()
		if !slices.Equal(q.Points, geom.ApplyPerm(pts, perm)) || !slices.Equal(q.Z, geom.ApplyPermFloat(z, perm)) {
			t.Errorf("%s: session data is not the caller's sorted by %s", c.name, c.want.Name())
		}
		if (q == p) != (c.want == geom.None) {
			t.Errorf("%s: session shares the caller's Problem: %v", c.name, q == p)
		}
		s.Close()
	}
	if !slices.Equal(p.Points, pts) || !slices.Equal(p.Z, z) {
		t.Fatal("NewSession modified the caller's Problem")
	}

	// A Problem already in the session's order is used as it is.
	morton := geom.Morton.Permutation(pts)
	sorted, err := NewProblem(geom.ApplyPerm(pts, morton), geom.ApplyPermFloat(z, morton), geom.Euclidean)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(sorted, Config{Mode: FullTile, TileSize: nb})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Problem() != sorted {
		t.Fatal("a Morton-sorted Problem was copied by a Morton session")
	}
}

// TestTLRDefaultOrderingIsKDBlock: what the TLR default buys — on a
// perturbed grid at fit_tlr's tile size the KD cells leave the tiles at lower
// rank and in fewer bytes than Morton runs do.
func TestTLRDefaultOrderingIsKDBlock(t *testing.T) {
	grid, err := GenerateSynthetic(1500, 0, theta(), 32)
	if err != nil {
		t.Fatal(err)
	}
	eval := func(ordering string) LikResult {
		lik, err := LogLikelihood(grid.Train, theta(), Config{Mode: TLR, TileSize: 128, Accuracy: 1e-7,
			Workers: 2, Ordering: ordering})
		if err != nil {
			t.Fatal(err)
		}
		return lik
	}
	kd, morton := eval(""), eval(geom.OrderMorton)
	if !(kd.MeanRank < morton.MeanRank && kd.Bytes < morton.Bytes) {
		t.Fatalf("kdblock mean rank %.2f, %d B; morton %.2f, %d B: want both below", kd.MeanRank, kd.Bytes, morton.MeanRank, morton.Bytes)
	}
}

// TestOrderingLowersClusteredRanks: what an ordering changes is the cost —
// on clustered points, whose raw order interleaves the clusters, a
// locality-aware ordering leaves the TLR tiles at lower rank than the raw
// order does. (That the answer does not change is TestEquivalenceOracle's:
// every row is held to full-block in caller order.)
func TestOrderingLowersClusteredRanks(t *testing.T) {
	pts := geom.GenerateClustered(144, 8, 0.02, rng.New(28))
	z, err := cov.SampleField(cov.NewKernel(theta()), pts, geom.Euclidean, rng.New(29))
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProblem(pts, z, geom.Euclidean)
	if err != nil {
		t.Fatal(err)
	}
	meanRank := func(ordering string) float64 {
		lik, err := LogLikelihood(p, theta(), Config{Mode: TLR, TileSize: 24, Accuracy: 1e-9, Ordering: ordering})
		if err != nil {
			t.Fatal(err)
		}
		return lik.MeanRank
	}
	raw := meanRank(geom.OrderNone)
	for _, name := range []string{geom.OrderHilbert, geom.OrderKDBlock} {
		if got := meanRank(name); got >= raw {
			t.Fatalf("clustered points: %s mean tile rank %.1f is not below the raw order's %.1f", name, got, raw)
		}
	}
}

// TestOrderingComposesWithChaos: a chaos-injected TLR fit under a non-default
// ordering recovers bitwise the fault-free result — a replayed evaluation
// sees the same ordering.
func TestOrderingComposesWithChaos(t *testing.T) {
	p := smallProblem(t, 120, 26)
	newPts := []geom.Point{{X: 0.41, Y: 0.43}, {X: 0.13, Y: 0.77}}
	base := Config{Mode: TLR, TileSize: 24, Accuracy: 1e-7, Workers: 4, Ordering: geom.OrderHilbert}

	_, wantFit, wantPred := fitAndPredict(t, p, base, newPts)

	cfg := base
	cfg.MaxRetries = 3 // per evaluation: all three victims may land in one
	cfg.Chaos = &chaos.FaultPlan{
		Seed:       4321,
		TaskPanics: 3,
		TaskDelays: 3,
		TaskDelay:  100 * time.Microsecond,
	}
	s, gotFit, gotPred := fitAndPredict(t, p, cfg, newPts)
	if st := s.ChaosStats(); st.TaskPanics < 1 {
		t.Fatalf("no task panic was injected: %+v", st)
	}
	if gotFit.Theta != wantFit.Theta || gotFit.LogL != wantFit.LogL {
		t.Fatalf("hilbert-ordered fit under chaos diverged:\n got %+v\nwant %+v", gotFit, wantFit)
	}
	for i := range wantPred {
		if gotPred[i] != wantPred[i] {
			t.Fatalf("hilbert-ordered prediction %d diverged under chaos", i)
		}
	}
}
