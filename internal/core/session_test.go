package core

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/chaos"
	"repro/internal/geom"
	"repro/internal/mpi"
	"repro/internal/tlr"
)

// validateCase is one Config.Validate row; want is a substring of the error,
// "" for a valid config.
type validateCase struct {
	name string
	cfg  Config
	want string
}

func checkValidate(t *testing.T, cases []validateCase) {
	t.Helper()
	for _, tc := range cases {
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

func TestConfigValidate(t *testing.T) {
	checkValidate(t, []validateCase{
		{"zero value", Config{}, ""},
		{"defaults", DefaultConfig(), ""},
		{"tlr", Config{Mode: TLR, Accuracy: 1e-7, CompressorName: "rsvd"}, ""},
		{"dist", Config{Mode: TLR, Ranks: 6}, ""},
		{"unknown mode", Config{Mode: Mode(9)}, "unknown mode"},
		{"negative tile", Config{TileSize: -1}, "TileSize"},
		{"negative accuracy", Config{Accuracy: -1e-9}, "Accuracy"},
		{"negative workers", Config{Workers: -2}, "Workers"},
		{"negative nugget", Config{Nugget: -1}, "Nugget"},
		{"NaN accuracy", Config{Mode: TLR, Accuracy: math.NaN()}, "Accuracy"},
		{"+Inf accuracy", Config{Mode: TLR, Accuracy: math.Inf(1)}, "Accuracy"},
		{"-Inf accuracy", Config{Mode: TLR, Accuracy: math.Inf(-1)}, "Accuracy"},
		{"NaN nugget", Config{Nugget: math.NaN()}, "Nugget"},
		{"+Inf nugget", Config{Nugget: math.Inf(1)}, "Nugget"},
		{"-Inf nugget", Config{Nugget: math.Inf(-1)}, "Nugget"},
		{"bad compressor", Config{CompressorName: "zstd"}, "rsvd is the one compressor"},
		// the exact SVD is refused, not coerced: no session runs it
		{"svd compressor", Config{Mode: TLR, CompressorName: "svd"}, "rsvd is the one compressor"},
		{"svd on hodlr", Config{Mode: HODLR, CompressorName: "svd"}, "rsvd is the one compressor"},
		{"rsvd on hodlr", Config{Mode: HODLR, CompressorName: "rsvd"}, ""},
		{"negative ranks", Config{Ranks: -4}, "Ranks"},
		{"dist dense", Config{Mode: FullBlock, Ranks: 4}, "requires Mode=TLR"},
		{"dist full tile", Config{Mode: FullTile, Ranks: 4}, "requires Mode=TLR"},
	})
}

// TestChaosConfigValidation covers the failure knobs' error paths.
func TestChaosConfigValidation(t *testing.T) {
	checkValidate(t, []validateCase{
		{"retries ok", Config{MaxRetries: 3}, ""},
		{"chaos ok", Config{Mode: FullTile, Chaos: &chaos.FaultPlan{Seed: 1, TaskPanics: 2}}, ""},
		{"negative retries", Config{MaxRetries: -1}, "MaxRetries"},
		{"invalid chaos plan", Config{Chaos: &chaos.FaultPlan{TaskPanics: -1}}, "TaskPanics"},
		// faults the configuration never delivers
		{"kill on shared memory", Config{Mode: TLR, Chaos: &chaos.FaultPlan{KillRank: 1}}, "KillRank"},
		{"kill past the ranks", Config{Mode: TLR, Ranks: 4, Chaos: &chaos.FaultPlan{KillRank: 5}}, "KillRank"},
		{"kill on ranks ok", Config{Mode: TLR, Ranks: 4, Chaos: &chaos.FaultPlan{KillRank: 4, KillAtTask: 9}}, ""},
		{"compress misses off TLR", Config{Mode: HODLR, Chaos: &chaos.FaultPlan{CompressMisses: 1}}, "CompressMisses"},
		{"compress misses full-tile", Config{Mode: FullTile, Chaos: &chaos.FaultPlan{CompressMisses: 1}}, "CompressMisses"},
		{"compress misses on ranks ok", Config{Mode: TLR, Ranks: 2, Chaos: &chaos.FaultPlan{CompressMisses: 1}}, ""},
		{"task panics full-block", Config{Mode: FullBlock, Chaos: &chaos.FaultPlan{TaskPanics: 1}}, "TaskPanics"},
		{"task delays full-block", Config{Mode: FullBlock, Chaos: &chaos.FaultPlan{TaskDelays: 1}}, "TaskDelays"},
		{"task faults on ranks ok", Config{Mode: TLR, Ranks: 3, Chaos: &chaos.FaultPlan{TaskPanics: 1, TaskDelays: 1}}, ""},
	})
}

func TestMemBudgetValidation(t *testing.T) {
	checkValidate(t, []validateCase{
		{"minimal budget", Config{Mode: TLR, TileSize: 64, MemBudget: tlr.MinMemBudget(64, 1)}, ""},
		{"negative", Config{Mode: TLR, MemBudget: -1}, "negative MemBudget"},
		{"dense mode", Config{Mode: FullBlock, MemBudget: 1 << 30}, "requires Mode=TLR"},
		{"distributed", Config{Mode: TLR, Ranks: 4, MemBudget: 1 << 30}, "unsupported with Ranks"},
		{"too small", Config{Mode: TLR, TileSize: 128, Workers: 2, MemBudget: 1024}, "below the in-flight working set"},
		{"spill dir without budget", Config{Mode: TLR, SpillDir: "spill"}, "SpillDir \"spill\" without a MemBudget"},
	})
}

// A spill location that cannot hold the spill file — missing, or a file —
// fails NewSession, not the first evaluation.
func TestNewSessionOpensSpillFile(t *testing.T) {
	p := smallProblem(t, 100, 1)
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, dir := range []string{filepath.Join(t.TempDir(), "missing"), file} {
		cfg := Config{Mode: TLR, TileSize: 50, MemBudget: tlr.MinMemBudget(50, 1), SpillDir: dir}
		s, err := NewSession(p, cfg)
		if err == nil {
			s.Close()
			t.Fatalf("SpillDir %s: NewSession succeeded", dir)
		}
		if !strings.Contains(err.Error(), "out-of-core spill file") {
			t.Fatalf("SpillDir %s: %v", dir, err)
		}
	}
}

func TestConfigNormalized(t *testing.T) {
	got := Config{}.normalized()
	want := DefaultConfig().normalized()
	// An empty Ordering resolves by mode: Morton for the dense modes and
	// HODLR, KD blocks for TLR.
	if got.Ordering != geom.OrderMorton || want.Ordering != geom.OrderMorton {
		t.Fatalf("ordering defaults: zero %q, DefaultConfig %q", got.Ordering, want.Ordering)
	}
	if o := (Config{Mode: TLR}).normalized().Ordering; o != geom.OrderKDBlock {
		t.Fatalf("TLR ordering default %q, want %q", o, geom.OrderKDBlock)
	}
	if got != want {
		t.Fatalf("zero Config normalizes to %+v, DefaultConfig to %+v", got, want)
	}
	if got.TileSize != 128 || got.Accuracy != 1e-9 || got.Workers != 1 ||
		got.CompressorName != "" || got.Ranks != 1 {
		t.Fatalf("unexpected defaults: %+v", got)
	}
	// Ranks are laid out on the most square grid, P ≤ Q.
	for ranks, want := range map[int]mpi.Grid{1: {P: 1, Q: 1}, 4: {P: 2, Q: 2}, 6: {P: 2, Q: 3}, 7: {P: 1, Q: 7}} {
		if g := mpi.SquarestGrid(ranks); g != want {
			t.Fatalf("%d ranks on grid %v, want %v", ranks, g, want)
		}
	}
}

// TestDefaultConfigMatchesZero: the zero Config normalizes to DefaultConfig
// field by field — the defaults are written once, there — but for the
// ordering, which DefaultConfig leaves to the mode and normalizing resolves.
// No default names a compressor: there is one, and CompressorName stays
// empty.
func TestDefaultConfigMatchesZero(t *testing.T) {
	want := DefaultConfig()
	if want.Ordering != "" {
		t.Fatalf("DefaultConfig names ordering %q; it is the mode's to pick", want.Ordering)
	}
	want.Ordering = geom.OrderMorton
	if got := (Config{}).normalized(); got != want {
		t.Fatalf("zero Config normalizes to %+v, DefaultConfig is %+v", got, want)
	}
	// the budget floor is checked at the same defaults
	floor := tlr.MinMemBudget(want.TileSize, want.Workers)
	if err := (Config{Mode: TLR, MemBudget: floor}).Validate(); err != nil {
		t.Fatalf("MemBudget at the default floor refused: %v", err)
	}
	if err := (Config{Mode: TLR, MemBudget: floor - 1}).Validate(); err == nil {
		t.Fatal("MemBudget below the default floor accepted")
	}
}

// Entry points must reject invalid configs instead of coercing them.
func TestEntryPointsValidateConfig(t *testing.T) {
	p := smallProblem(t, 64, 3)
	bad := Config{Mode: TLR, CompressorName: "nope"}
	if _, err := LogLikelihood(p, theta(), bad); err == nil {
		t.Error("LogLikelihood accepted an unknown compressor")
	}
	if _, err := Fit(p, Config{TileSize: -5}, FitOptions{}); err == nil {
		t.Error("Fit accepted a negative TileSize")
	}
	if _, err := Predict(p, p.Points[:2], theta(), Config{Accuracy: -1}); err == nil {
		t.Error("Predict accepted a negative Accuracy")
	}
	if _, err := PredictWithVariance(p, p.Points[:2], theta(), Config{Nugget: -1}); err == nil {
		t.Error("PredictWithVariance accepted a negative Nugget")
	}
	if _, _, err := SolveRefined(p, theta(), Config{Ranks: 4}, make([]float64, p.N()), RefineOptions{}); err == nil {
		t.Error("SolveRefined accepted Ranks outside TLR")
	}
	if _, err := NewSession(nil, Config{}); err == nil {
		t.Error("NewSession accepted a nil problem")
	}
}
