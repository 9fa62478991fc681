package core

import (
	"math"
	"strings"
	"testing"

	"repro/internal/cov"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/rng"
)

// TestHODLRMatchesDenseGolden is the acceptance pin for the compressed
// backends: at n=1600 under every spatial ordering the repo ships, the HODLR
// and TLR sessions must reproduce the exact dense likelihood to ≤1e-6
// relative, store less than the dense factor, and agree on kriging means and
// variances end-to-end through Session.
func TestHODLRMatchesDenseGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("n=1600 golden comparison skipped in -short mode")
	}
	const n = 1600
	r := rng.New(97)
	pts := geom.GeneratePerturbedGrid(n, r)
	k := cov.NewKernel(theta())
	z, err := cov.SampleField(k, pts, geom.Euclidean, r.Split(1))
	if err != nil {
		t.Fatal(err)
	}
	newPts := geom.GeneratePerturbedGrid(16, rng.New(98))
	th := theta()

	for _, ord := range []geom.Ordering{geom.None, geom.Morton, geom.Hilbert, geom.KDBlocks(128)} {
		p, err := NewProblemOrdered(pts, z, geom.Euclidean, ord)
		if err != nil {
			t.Fatal(err)
		}
		ds, err := NewSession(p, Config{Mode: FullBlock, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		want, err := ds.LogLikelihood(th)
		if err != nil {
			t.Fatal(err)
		}
		wantPred, err := ds.PredictWithVariance(newPts, th)
		if err != nil {
			t.Fatal(err)
		}

		// rsvd keeps the top-level 800×800 block compressions tractable; the
		// tolerance still pins the result to the dense answer at ≤1e-6.
		for _, mode := range []Mode{HODLR, TLR} {
			name := ord.Name() + "/" + mode.String()
			cs, err := NewSession(p, Config{Mode: mode, TileSize: 128, Accuracy: 1e-10, Workers: 4, CompressorName: "rsvd"})
			if err != nil {
				t.Fatal(err)
			}
			got, err := cs.LogLikelihood(th)
			if err != nil {
				t.Fatalf("%s: likelihood: %v", name, err)
			}
			if rel := math.Abs(got.Value-want.Value) / math.Abs(want.Value); rel > 1e-6 {
				t.Fatalf("%s: loglik %.10g vs dense %.10g (rel %g)", name, got.Value, want.Value, rel)
			}
			if got.Bytes >= want.Bytes {
				t.Fatalf("%s: stores %d bytes, dense %d — no compression", name, got.Bytes, want.Bytes)
			}
			gotPred, err := cs.PredictWithVariance(newPts, th)
			if err != nil {
				t.Fatalf("%s: predict: %v", name, err)
			}
			for i := range wantPred.Mean {
				if math.Abs(gotPred.Mean[i]-wantPred.Mean[i]) > 1e-6 {
					t.Fatalf("%s: kriging mean %d: %g vs %g", name, i, gotPred.Mean[i], wantPred.Mean[i])
				}
				if math.Abs(gotPred.Variance[i]-wantPred.Variance[i]) > 1e-6 {
					t.Fatalf("%s: kriging variance %d: %g vs %g", name, i, gotPred.Variance[i], wantPred.Variance[i])
				}
			}
		}
	}
}

// TestRegistryRejectsUnknownMode: Config validation is driven by the modes
// table — a Mode value without a row errors and the message names the modes
// there are.
func TestRegistryRejectsUnknownMode(t *testing.T) {
	p := smallProblem(t, 60, 9)
	for _, mode := range []Mode{Mode(42), Mode(99), Mode(-1)} {
		_, err := NewSession(p, Config{Mode: mode})
		if err == nil {
			t.Fatalf("mode %d accepted", int(mode))
		}
		if !strings.Contains(err.Error(), "unknown mode") {
			t.Fatalf("mode %d error %q does not say unknown mode", int(mode), err)
		}
		for _, name := range ModeNames() {
			if !strings.Contains(err.Error(), name) {
				t.Fatalf("unknown-mode error %q omits registered mode %q", err, name)
			}
		}
	}
}

// TestRegistryRejectsIncompatibleRanks: only modes with a row that factors
// over ranks accept Ranks>1, and the error names them.
func TestRegistryRejectsIncompatibleRanks(t *testing.T) {
	p := smallProblem(t, 60, 9)
	for _, cfg := range []Config{
		{Mode: FullBlock, Ranks: 2},
		{Mode: FullTile, Ranks: 4, TileSize: 16},
		{Mode: HODLR, Ranks: 2, TileSize: 16},
	} {
		_, err := NewSession(p, cfg)
		if err == nil {
			t.Fatalf("%v with Ranks=%d accepted", cfg.Mode, cfg.Ranks)
		}
		if !strings.Contains(err.Error(), "requires Mode=TLR") {
			t.Fatalf("%v error %q does not name the distributed-capable mode", cfg.Mode, err)
		}
	}
	// The one mode with such a row still works.
	if _, err := NewSession(p, Config{Mode: TLR, Ranks: 2, TileSize: 16}); err != nil {
		t.Fatalf("TLR with Ranks=2 rejected: %v", err)
	}
}

// TestModeByNameRoundTrips: every registered name and alias resolves, the
// canonical names round-trip through Mode.String, and lookup is
// case-insensitive.
func TestModeByNameRoundTrips(t *testing.T) {
	names := ModeNames()
	if len(names) != 4 {
		t.Fatalf("expected 4 modes, have %v", names)
	}
	for _, name := range names {
		m, err := ModeByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if m.String() != name {
			t.Fatalf("ModeByName(%q) = %v (String %q)", name, m, m.String())
		}
		upper, err := ModeByName("  " + strings.ToUpper(name) + " ")
		if err != nil || upper != m {
			t.Fatalf("case/space-insensitive lookup of %q failed: %v %v", name, upper, err)
		}
	}
	for alias, want := range map[string]Mode{
		"dense": FullBlock, "exact": FullBlock, "fullblock": FullBlock,
		"tile": FullTile, "fulltile": FullTile,
	} {
		m, err := ModeByName(alias)
		if err != nil || m != want {
			t.Fatalf("alias %q → %v, %v; want %v", alias, m, err, want)
		}
	}
	if _, err := ModeByName("hierarchical-nonsense"); err == nil {
		t.Fatal("unknown name accepted")
	} else if !strings.Contains(err.Error(), "hodlr") {
		t.Fatalf("unknown-name error %q should list registered modes", err)
	}
}

// TestSessionDiagnosticsUniform: the nugget-escalation ladder reports
// through LikResult and Session.Metrics identically in every mode.
func TestSessionDiagnosticsUniform(t *testing.T) {
	p := smallProblem(t, 80, 3)
	for _, cfg := range []Config{
		{Mode: FullBlock},
		{Mode: FullTile, TileSize: 32},
		{Mode: TLR, TileSize: 32, Accuracy: 1e-8},
		{Mode: HODLR, TileSize: 32, Accuracy: 1e-8},
		{Mode: TLR, TileSize: 32, Accuracy: 1e-8, Ranks: 4},
	} {
		s, err := NewSession(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		before := obs.Default().Snapshot()
		lik, err := s.LogLikelihood(theta())
		if err != nil {
			t.Fatalf("%v: %v", cfg.Mode, err)
		}
		if lik.NuggetUsed <= 0 || lik.NuggetRetries != 0 {
			t.Fatalf("%v: diagnostics not populated: %+v", cfg.Mode, lik)
		}
		// ranks generate with the shared generator, so the compression
		// instruments see them: MT = 3, one compression per off-diagonal tile
		if got := obs.Default().Snapshot().Sub(before).Counters["tlr.compress.calls"]; cfg.Ranks > 1 && got != 3 {
			t.Fatalf("%d ranks: tlr.compress.calls advanced by %d, want 3", cfg.Ranks, got)
		}
		if m := s.Metrics(); m.FactorFailures != 0 || m.NuggetEscalations != 0 || m.LastFactorFailure != "" {
			t.Fatalf("%v: a clean evaluation left failures behind: %+v", cfg.Mode, m)
		}
	}
}
