package core

import (
	"strings"
	"testing"
)

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
