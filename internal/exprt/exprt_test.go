package exprt

import (
	"bytes"
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

// TestFastExperimentsPrintTheirSeries runs the experiments that are
// simulation-only or sub-second and checks each prints the rows and series
// headers its figure reports.
func TestFastExperimentsPrintTheirSeries(t *testing.T) {
	cases := map[string][]string{
		"fig1": {"n=1024, nb=128, accuracy 1e-07", "D = dense diagonal tile", "max rank", "mean rank", "TLR storage"},
		"fig2": {"362 for MLE", "38 held out", "min pairwise distance", "x", "o"},
		"fig4": {"256 nodes", "1024 nodes", "full-tile", "tlr(1e-9)", "tlr(1e-7)", "tlr(1e-5)", "max TLR speedup"},
		"fig5": {"prediction of 100 unknowns", "256 nodes", "full-tile", "tlr(1e-9)", "tlr(1e-7)", "tlr(1e-5)", "1000000"},
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
