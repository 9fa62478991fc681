package core

import (
	"math"
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

// TestProblemKeepsPermutation: NewProblem records the Morton permutation and
// the restore helpers invert it exactly.
func TestProblemKeepsPermutation(t *testing.T) {
	pts, z := rawDataset(t, 144, 21)
	p, err := NewProblem(pts, z, geom.Euclidean)
	if err != nil {
		t.Fatal(err)
	}
	if p.Ordering != geom.OrderMorton {
		t.Fatalf("NewProblem ordering %q, want %q", p.Ordering, geom.OrderMorton)
	}
	if len(p.Perm) != len(pts) {
		t.Fatalf("perm length %d, want %d", len(p.Perm), len(pts))
	}
	for i := range p.Points {
		if p.Points[i] != pts[p.Perm[i]] || p.Z[i] != z[p.Perm[i]] {
			t.Fatalf("Perm does not map stored index %d to its caller point", i)
		}
	}
	gotZ := p.RestoreOrder(p.Z)
	gotPts := p.RestorePoints(p.Points)
	for i := range pts {
		if gotZ[i] != z[i] || gotPts[i] != pts[i] {
			t.Fatalf("restore helpers did not recover caller order at %d", i)
		}
	}
	inv := p.InversePerm()
	for i := range p.Perm {
		if inv[p.Perm[i]] != i {
			t.Fatalf("InversePerm wrong at %d", i)
		}
	}
}

// TestNewProblemOrderedSchemes: each scheme is recorded, each is a valid
// bijection over the data, and "none" preserves caller order exactly.
func TestNewProblemOrderedSchemes(t *testing.T) {
	pts, z := rawDataset(t, 100, 22)
	for _, ord := range []geom.Ordering{geom.None, geom.Morton, geom.Hilbert, geom.KDBlocks(25)} {
		p, err := NewProblemOrdered(pts, z, geom.Euclidean, ord)
		if err != nil {
			t.Fatal(err)
		}
		if p.Ordering != ord.Name() {
			t.Fatalf("ordering %q recorded as %q", ord.Name(), p.Ordering)
		}
		var sum float64
		for _, v := range p.Z {
			sum += v
		}
		var want float64
		for _, v := range z {
			want += v
		}
		if math.Abs(sum-want) > 1e-9 {
			t.Fatalf("%s: Z not a permutation of the input", ord.Name())
		}
	}
	p, err := NewProblemOrdered(pts, z, geom.Euclidean, geom.None)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pts {
		if p.Points[i] != pts[i] || p.Z[i] != z[i] {
			t.Fatal("none ordering must preserve caller order")
		}
	}
}

// TestReorderedComposes: reordering a problem twice still maps straight back
// to the original caller order, and leaves the receiver untouched.
func TestReorderedComposes(t *testing.T) {
	pts, z := rawDataset(t, 81, 23)
	p, err := NewProblem(pts, z, geom.Euclidean) // morton
	if err != nil {
		t.Fatal(err)
	}
	beforePts := append([]geom.Point(nil), p.Points...)
	q := p.Reordered(geom.Hilbert).Reordered(geom.KDBlocks(27))
	for i := range p.Points {
		if p.Points[i] != beforePts[i] {
			t.Fatal("Reordered mutated its receiver")
		}
	}
	if q.Ordering != geom.OrderKDBlock {
		t.Fatalf("ordering after two reorders %q", q.Ordering)
	}
	for i := range q.Points {
		if q.Points[i] != pts[q.Perm[i]] || q.Z[i] != z[q.Perm[i]] {
			t.Fatalf("composed Perm broken at %d", i)
		}
	}
	gotZ := q.RestoreOrder(q.Z)
	for i := range z {
		if gotZ[i] != z[i] {
			t.Fatalf("restore after composition wrong at %d", i)
		}
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

// TestSessionAppliesConfiguredOrdering: a Session with a different Ordering
// evaluates on a reordered private copy and leaves the caller's Problem
// untouched.
func TestSessionAppliesConfiguredOrdering(t *testing.T) {
	pts, z := rawDataset(t, 100, 24)
	p, err := NewProblem(pts, z, geom.Euclidean) // morton
	if err != nil {
		t.Fatal(err)
	}
	before := append([]geom.Point(nil), p.Points...)
	s, err := NewSession(p, Config{Mode: TLR, TileSize: 25, Accuracy: 1e-9, Ordering: geom.OrderHilbert})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Problem().Ordering; got != geom.OrderHilbert {
		t.Fatalf("session problem ordering %q, want hilbert", got)
	}
	if s.Problem() == p {
		t.Fatal("session must not evaluate the caller's Problem under a different ordering")
	}
	for i := range before {
		if p.Points[i] != before[i] {
			t.Fatal("NewSession mutated the caller's Problem")
		}
	}
	// Matching ordering (or empty) keeps the exact caller Problem.
	for _, ordering := range []string{"", geom.OrderMorton} {
		s2, err := NewSession(p, Config{Ordering: ordering})
		if err != nil {
			t.Fatal(err)
		}
		if s2.Problem() != p {
			t.Fatalf("Ordering %q must not copy an already-matching problem", ordering)
		}
	}
}

// TestTLRDefaultOrderingIsKDBlock: an empty Ordering means KD blocks at the
// session's TileSize under TLR — shared, out of core and on ranks alike — and
// the Problem's own order in every other mode or under an explicit name; on
// a perturbed grid the KD cells leave the tiles at lower rank and in fewer
// bytes than Morton runs do.
func TestTLRDefaultOrderingIsKDBlock(t *testing.T) {
	pts, z := rawDataset(t, 300, 31)
	p, err := NewProblem(pts, z, geom.Euclidean) // morton
	if err != nil {
		t.Fatal(err)
	}
	const nb = 40
	want := geom.Sorted(geom.KDBlocks(nb), pts)
	if slices.Equal(want, p.Points) {
		t.Fatal("KD blocks and Morton agree on this set: the test shows nothing")
	}
	tlrCfg := Config{Mode: TLR, TileSize: nb, Accuracy: 1e-7}
	for name, cfg := range map[string]Config{
		"shared":      tlrCfg,
		"out-of-core": {Mode: TLR, TileSize: nb, Accuracy: 1e-7, MemBudget: tlr.MinMemBudget(nb, 1)},
		"ranks":       {Mode: TLR, TileSize: nb, Accuracy: 1e-7, Ranks: 2},
	} {
		s, err := NewSession(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		q := s.Problem()
		if q.Ordering != geom.OrderKDBlock || s.Config().Ordering != geom.OrderKDBlock {
			t.Fatalf("%s: session ordering %q (config %q), want %q", name, q.Ordering, s.Config().Ordering, geom.OrderKDBlock)
		}
		if !slices.Equal(q.Points, want) {
			t.Fatalf("%s: session points are not the KD blocks at TileSize %d", name, nb)
		}
		for i := range q.Points {
			if q.Points[i] != pts[q.Perm[i]] || q.Z[i] != z[q.Perm[i]] {
				t.Fatalf("%s: Perm does not map stored index %d to its caller point", name, i)
			}
		}
		s.Close()
	}
	for name, cfg := range map[string]Config{
		"full-block":   {Mode: FullBlock},
		"full-tile":    {Mode: FullTile, TileSize: nb},
		"hodlr":        {Mode: HODLR, TileSize: nb, Accuracy: 1e-7},
		"tlr (morton)": {Mode: TLR, TileSize: nb, Accuracy: 1e-7, Ordering: geom.OrderMorton},
	} {
		s, err := NewSession(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if s.Problem() != p {
			t.Fatalf("%s: session left the Problem's own order", name)
		}
		s.Close()
	}

	// The cost the default buys, at fit_tlr's tile size.
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

// TestKDBlockProblemAtAnotherTileSizeIsReordered: a Problem cut into KD
// blocks of one size carries the same Ordering name as one cut at another,
// so the session compares permutations: at a different TileSize it
// reorders, at the same one it keeps the Problem.
func TestKDBlockProblemAtAnotherTileSizeIsReordered(t *testing.T) {
	pts, z := rawDataset(t, 1536, 33)
	p64, err := NewProblemOrdered(pts, z, geom.Euclidean, geom.KDBlocks(64))
	if err != nil {
		t.Fatal(err)
	}
	want := geom.Sorted(geom.KDBlocks(128), pts)
	if slices.Equal(want, p64.Points) {
		t.Fatal("KD blocks at 64 and 128 agree on this set: the test shows nothing")
	}
	s, err := NewSession(p64, Config{Mode: TLR, TileSize: 128, Ordering: geom.OrderKDBlock})
	if err != nil {
		t.Fatal(err)
	}
	if s.Problem() == p64 || !slices.Equal(s.Problem().Points, want) {
		t.Fatal("a Problem in KD blocks of 64 was not reordered into KD blocks of 128")
	}
	p128, err := NewProblemOrdered(pts, z, geom.Euclidean, geom.KDBlocks(128))
	if err != nil {
		t.Fatal(err)
	}
	for _, ordering := range []string{"", geom.OrderKDBlock} {
		s, err := NewSession(p128, Config{Mode: TLR, TileSize: 128, Ordering: ordering})
		if err != nil {
			t.Fatal(err)
		}
		if s.Problem() != p128 {
			t.Fatalf("Ordering %q: a Problem already in KD blocks of 128 was copied", ordering)
		}
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
	p, err := NewProblemOrdered(pts, z, geom.Euclidean, geom.None)
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
