package exprt

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/cov"
	"repro/internal/datasets"
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
	"fig6":       "Monte-Carlo fits of three θ at four accuracies: 10 s at the small scale, minutes under -race",
	"table1":     "eight regions fitted at four TLR accuracies and full-tile: 7 s at the small scale",
	"table2":     "four regions fitted at three TLR accuracies and full-tile: 6 s at the small scale",
	"ablation":   "six sections of real factorizations and rank runs: 6 s at the small scale, a minute under -race",
	"extensions": "a fit, PCG solves and 5 variance predicts: 0.3 s at the small scale, 7 s under -race",
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

// Fig. 6's small-scale fits converge within the budget fig6Size gives them:
// one replicate per initial vector, fitted full-tile at nb = 64 from the
// truth, as the figure fits it.
func TestFig6SmallScaleFitsConverge(t *testing.T) {
	n, _, evals := fig6Size(ScaleSmall)
	cfg := core.Config{Mode: core.FullTile, TileSize: 64, Workers: 1}
	for _, truth := range fig6Vectors {
		probs, err := core.GenerateSyntheticReplicates(n, 1, truth, Options{}.withDefaults().Seed)
		if err != nil {
			t.Fatal(err)
		}
		fit, err := core.Fit(probs[0], cfg, core.FitOptions{Start: truth, MaxEvals: evals})
		if err != nil {
			t.Fatal(err)
		}
		if !fit.Converged {
			t.Errorf("θ = %+v: the fit did not converge within %d evaluations (θ̂ = %+v)", truth, evals, fit.Theta)
		}
	}
}

// TestSimulatedTablesGolden pins every table the machine model prints at the
// small scale — Fig. 3 part B on the four testbeds (part A is wall-clock),
// Fig. 4, Fig. 5 and ablation sections [3] and [4], drawn by the roofline
// model and runtime.Simulate — byte for byte to captured text, so a change
// to either model moves a figure only on purpose, by re-recording the file.
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

// TestOnBoundaryMarksTheBox: Tables I–II mark an estimate that lies within
// TolX of the box the optimizer searched, in its coordinates (log θ2, θ3) —
// the soil-moisture R4 fit stops at smoothness 3.000, the upper bound — and
// no interior estimate and no variance, which is concentrated out.
func TestOnBoundaryMarksTheBox(t *testing.T) {
	o := core.FitOptions{
		Lower: cov.Params{Range: 1e-3, Smoothness: 0.1},
		Upper: cov.Params{Range: 10, Smoothness: 3},
		TolX:  1e-4,
	}
	for _, tc := range []struct {
		theta cov.Params
		want  [3]bool
	}{
		{cov.Params{Variance: 0.425, Range: 2.663, Smoothness: 3}, [3]bool{false, false, true}},
		{cov.Params{Variance: 1, Range: 2.663, Smoothness: 3 - 5e-5}, [3]bool{false, false, true}},
		{cov.Params{Variance: 1, Range: 2.663, Smoothness: 3 - 2e-4}, [3]bool{}},
		{cov.Params{Variance: 1, Range: 2.663, Smoothness: 0.1}, [3]bool{false, false, true}},
		{cov.Params{Variance: 1, Range: 10 * (1 - 5e-5), Smoothness: 0.5}, [3]bool{false, true, false}},
		{cov.Params{Variance: 1, Range: 10 * (1 - 2e-4), Smoothness: 0.5}, [3]bool{}},
		{cov.Params{Variance: 1, Range: 1e-3, Smoothness: 3}, [3]bool{false, true, true}},
		{cov.Params{Variance: 1e-3, Range: 0.5, Smoothness: 0.8}, [3]bool{}},
	} {
		if got := onBoundary(tc.theta, o); got != tc.want {
			t.Errorf("θ = %+v: onBoundary %v, want %v", tc.theta, got, tc.want)
		}
	}
	// The box a region is fitted in is the one the rule reads.
	reg := datasets.Region{Truth: cov.Params{Range: 0.2}}
	o = regionFitOptions(reg)
	if got := onBoundary(cov.Params{Range: 50 * 0.2, Smoothness: 0.5}, o); !got[1] {
		t.Errorf("range at 50× the truth's not marked in a region's box %+v", o)
	}
}

func TestRegionPointsScales(t *testing.T) {
	if regionPoints(ScaleSmall) >= regionPoints(ScalePaper) {
		t.Fatal("paper scale should use more points")
	}
}
