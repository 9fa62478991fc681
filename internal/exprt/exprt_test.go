package exprt

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

func TestByName(t *testing.T) {
	for _, e := range Experiments {
		got, err := ByName(e.Name)
		if err != nil || got.Name != e.Name {
			t.Fatalf("ByName(%q) failed: %v", e.Name, err)
		}
	}
	if _, err := ByName("fig99"); err == nil {
		t.Fatal("unknown experiment should error")
	}
}

func TestExperimentsCoverEveryTableAndFigure(t *testing.T) {
	want := []string{"fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "table1", "table2", "fig9", "ablation", "extensions"}
	if len(Experiments) != len(want) {
		t.Fatalf("experiment count %d, want %d", len(Experiments), len(want))
	}
	for i, name := range want {
		if Experiments[i].Name != name {
			t.Fatalf("experiment %d is %q, want %q", i, Experiments[i].Name, name)
		}
		if Experiments[i].Run == nil || Experiments[i].Title == "" {
			t.Fatalf("experiment %q incomplete", name)
		}
	}
}

// slowExperiments are the names TestFastExperimentsPrintTheirSeries does not
// run, each with the reason; `paperbench -exp <name>` is how they are run, and
// `make verify` runs `ablation` and `extensions` that way.
var slowExperiments = map[string]string{
	"fig6":       "Monte-Carlo fits of three θ at four accuracies: 20 s at the small scale, minutes under -race",
	"table1":     "eight region fits at four accuracies: 14 s at the small scale",
	"table2":     "four region fits at four accuracies: 12 s at the small scale",
	"ablation":   "six sections of real factorizations and rank runs: 6 s at the small scale, a minute under -race",
	"extensions": "two 150-evaluation fits: 2 s at the small scale, half a minute built and run under -race",
}

// TestFastExperimentsPrintTheirSeries runs every experiment that finishes in
// about a second at the small scale and checks it prints the rows and series
// headers its figure reports; every other name in Names() must be in
// slowExperiments with its reason, so a new experiment cannot go unrun
// unnoticed.
func TestFastExperimentsPrintTheirSeries(t *testing.T) {
	cases := map[string][]string{
		"fig1": {"n=1024, nb=128, accuracy 1e-07", "D = dense diagonal tile", "max rank", "mean rank", "TLR storage"},
		"fig2": {"362 for MLE", "38 held out", "min pairwise distance", "x", "o"},
		"fig3": {"[A] measured one-iteration time", "[B] simulated one-iteration time — haswell", "broadwell", "knl", "skylake",
			"full-block", "full-tile", "tlr(1e-5)", "tlr(1e-7)", "tlr(1e-9)", "tlr(1e-12)", "112225", "max TLR speedup vs full-tile"},
		"fig4": {"256 nodes", "1024 nodes", "full-tile", "tlr(1e-9)", "tlr(1e-7)", "tlr(1e-5)", "max TLR speedup"},
		"fig5": {"prediction of 100 unknowns", "256 nodes", "full-tile", "tlr(1e-9)", "tlr(1e-7)", "tlr(1e-5)", "1000000"},
		"fig7": {"prediction of 25 missing values", "initial θ = (1, 0.03, 0.5)", "initial θ = (1, 0.1, 0.5)", "initial θ = (1, 0.3, 0.5)",
			"mse median", "tlr(1e-7)", "tlr(1e-9)", "tlr(1e-12)", "full-tile"},
		"fig8": {"(a) simulated soil-moisture field, 8 regions", "(b) simulated wind-speed field, 4 regions"},
		"fig9": {"soil moisture R1", "soil moisture R3", "wind speed R1", "wind speed R4", "mse median",
			"tlr(1e-05)", "tlr(1e-07)", "tlr(1e-09)", "tlr(1e-12)", "full-tile"},
	}
	for _, name := range Names() {
		_, fast := cases[name]
		if reason, slow := slowExperiments[name]; fast == slow {
			t.Errorf("%s: run here (%v) and listed slow (%q): want exactly one", name, fast, reason)
		}
	}
	for name := range slowExperiments {
		if _, err := ByName(name); err != nil {
			t.Errorf("slowExperiments names no experiment: %v", err)
		}
	}
	for name, wants := range cases {
		e, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := e.Run(Options{Out: &buf, Workers: 1}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, want := range wants {
			if !strings.Contains(buf.String(), want) {
				t.Errorf("%s output missing %q:\n%s", name, want, buf.String())
			}
		}
	}
}

// TestSimulatedTablesGolden pins every table the machine model prints at the
// small scale — Fig. 3 part B on the four testbeds (part A is wall-clock),
// Fig. 4, Fig. 5 and ablation sections [3] and [4] — byte for byte to the
// text captured at the parent of the PR that put the DES, the roofline model
// and Simulate on one scheduler and one cost table.
func TestSimulatedTablesGolden(t *testing.T) {
	run := func(f func(Options) error) func(Options) {
		return func(o Options) {
			if err := f(o); err != nil {
				t.Fatal(err)
			}
		}
	}
	for name, print := range map[string]func(Options){
		"fig3b":     fig3Simulated,
		"fig4":      run(Fig4),
		"fig5":      run(Fig5),
		"ablation3": ablationTileSize,
		"ablation4": ablationScheduling,
	} {
		want, err := os.ReadFile("testdata/" + name + "_small.golden")
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		print(Options{Out: &buf}.withDefaults())
		if buf.String() != string(want) {
			t.Errorf("%s moved:\n%s\nwant:\n%s", name, buf.String(), want)
		}
	}
}

func TestIndent(t *testing.T) {
	if got := indent("a\nb\n", "  "); got != "  a\n  b\n" {
		t.Fatalf("indent wrong: %q", got)
	}
	if got := indent("tail", "> "); got != "> tail" {
		t.Fatalf("indent without newline wrong: %q", got)
	}
}

func TestFmtSecs(t *testing.T) {
	cases := map[string]string{
		fmtSecs(0.0001, false): "0.1ms",
		fmtSecs(0.5, false):    "500ms",
		fmtSecs(12.34, false):  "12.3s",
		fmtSecs(1, true):       "OOM",
	}
	for got, want := range cases {
		if got != want {
			t.Errorf("fmtSecs: got %q want %q", got, want)
		}
	}
}

func TestRegionPointsScales(t *testing.T) {
	if regionPoints(ScaleSmall) >= regionPoints(ScalePaper) {
		t.Fatal("paper scale should use more points")
	}
}
