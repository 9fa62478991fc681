package core

import (
	"fmt"
	"slices"
	"strings"
)

// modeSpec is one row of the modes table: one way to factor Σ(θ).
type modeSpec struct {
	mode Mode
	// name is the canonical name (what Mode.String, the CLI's -mode flag and
	// the serving wire format use); aliases are also accepted by ModeByName.
	name    string
	aliases []string
	// ranks marks the row that factors over Config.Ranks > 1 message-passing
	// ranks; a mode without such a row is shared-memory only.
	ranks bool
	// keep says the factor lives in this address space and stays valid until
	// the next factorization, so a Session may keep it across calls and
	// share it, read-only, among concurrent predicts. A factor sharded over
	// ranks is used by one caller at a time and factored again per call.
	keep bool
	// new builds the row's factorizer, with whatever per-problem state it
	// caches across evaluations, for a validated and normalized e.cfg.
	new func(e *evaluator) (factorizer, error)
}

// modes lists the five ways to factor. Everything above the factorization —
// recovery, both likelihoods, kriging, the session cache, metrics, serving —
// is written once against Factor and never dispatches on Mode.
var modes = []modeSpec{
	{mode: FullBlock, name: "full-block", aliases: []string{"dense", "fullblock", "exact"}, keep: true,
		new: func(*evaluator) (factorizer, error) { return &denseState{}, nil }},
	{mode: FullTile, name: "full-tile", aliases: []string{"tile", "fulltile"}, keep: true,
		new: func(*evaluator) (factorizer, error) { return &tileState{}, nil }},
	{mode: TLR, name: "tlr", keep: true, new: newTLRState},
	{mode: TLR, name: "tlr", ranks: true, new: newDistState},
	{mode: HODLR, name: "hodlr", keep: true,
		new: func(*evaluator) (factorizer, error) { return &hodlrState{}, nil }},
}

// lookupMode returns the row that factors in mode m over the given number of
// ranks (0 and 1 both mean shared memory).
func lookupMode(m Mode, ranks int) (*modeSpec, error) {
	known := false
	var onRanks []string
	for i := range modes {
		row := &modes[i]
		if row.ranks {
			onRanks = append(onRanks, strings.ToUpper(row.name))
		}
		if row.mode != m {
			continue
		}
		if row.ranks == (ranks > 1) {
			return row, nil
		}
		known = true
	}
	if !known {
		return nil, fmt.Errorf("core: unknown mode %v (have %s)", m, strings.Join(ModeNames(), ", "))
	}
	return nil, fmt.Errorf("core: distributed execution (Ranks=%d) requires Mode=%s, got %v",
		ranks, strings.Join(onRanks, "|"), m)
}

func (m Mode) String() string {
	for _, row := range modes {
		if row.mode == m {
			return row.name
		}
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// ModeNames returns the canonical names of the computation modes, sorted.
func ModeNames() []string {
	names := make([]string, 0, len(modes))
	for _, row := range modes {
		names = append(names, row.name)
	}
	slices.Sort(names)
	return slices.Compact(names)
}

// ModeByName resolves a mode name (canonical or alias, case-insensitive) to
// its Mode. Unknown names are an error listing the modes there are.
func ModeByName(name string) (Mode, error) {
	want := strings.ToLower(strings.TrimSpace(name))
	for _, row := range modes {
		if row.name == want || slices.Contains(row.aliases, want) {
			return row.mode, nil
		}
	}
	return 0, fmt.Errorf("core: unknown mode %q (have %s)", name, strings.Join(ModeNames(), ", "))
}
