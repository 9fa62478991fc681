package main

import (
	"path/filepath"
	"testing"

	exago "repro"
)

func TestParseTheta(t *testing.T) {
	th, err := parseTheta("1,0.1,0.5")
	if err != nil {
		t.Fatal(err)
	}
	if th != (exago.Theta{Variance: 1, Range: 0.1, Smoothness: 0.5}) {
		t.Fatalf("parsed %+v", th)
	}
	if _, err := parseTheta("1,0.1"); err == nil {
		t.Fatal("two components should fail")
	}
	if _, err := parseTheta("1,x,0.5"); err == nil {
		t.Fatal("non-numeric component should fail")
	}
	th, err = parseTheta(" 2 , 0.3 , 1.5 ")
	if err != nil || th.Smoothness != 1.5 {
		t.Fatalf("whitespace handling: %+v %v", th, err)
	}
}

func TestParseMode(t *testing.T) {
	for name, mode := range map[string]exago.Mode{
		"full-block": exago.FullBlock,
		"full-tile":  exago.FullTile,
		"tlr":        exago.TLR,
	} {
		cfg, err := parseMode(name, 1e-7, 64, 2)
		if err != nil || cfg.Mode != mode {
			t.Fatalf("parseMode(%q) = %+v, %v", name, cfg, err)
		}
	}
	if _, err := parseMode("hierarchical", 1e-7, 64, 2); err == nil {
		t.Fatal("unknown mode should fail")
	}
}

func TestRunSyntheticSmoke(t *testing.T) {
	cfg, err := parseMode("full-block", 0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := runSynthetic(64, 4, exago.Theta{Variance: 1, Range: 0.1, Smoothness: 0.5}, 1, cfg, 20, "", ""); err != nil {
		t.Fatal(err)
	}
}

func TestCSVAndModelPipeline(t *testing.T) {
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "d.csv")
	modelPath := filepath.Join(dir, "m.json")

	cfg, err := parseMode("full-block", 0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	// generate + export + save model
	if err := runSynthetic(100, 0, exago.Theta{Variance: 1, Range: 0.1, Smoothness: 0.5}, 2, cfg, 30, csvPath, modelPath); err != nil {
		t.Fatal(err)
	}
	// refit from CSV
	if err := runCSV(csvPath, "euclidean", 10, 3, cfg, 30, ""); err != nil {
		t.Fatal(err)
	}
	// predict with the saved model
	if err := runLoadedModel(modelPath, csvPath, 10, 4, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestHoldOutSplit(t *testing.T) {
	rec := exago.Records{Points: make([]exago.Point, 20), Z: make([]float64, 20)}
	for i := range rec.Points {
		rec.Points[i] = exago.Point{X: float64(i), Y: float64(i)}
		rec.Z[i] = float64(i)
	}
	trP, trZ, teP, teZ := holdOut(rec, 5, 9)
	if len(trP) != 15 || len(teP) != 5 || len(trZ) != 15 || len(teZ) != 5 {
		t.Fatalf("split sizes wrong: %d/%d", len(trP), len(teP))
	}
	// no hold-out when k out of range
	trP2, _, teP2, _ := holdOut(rec, 0, 9)
	if len(trP2) != 20 || teP2 != nil {
		t.Fatal("k=0 should keep everything")
	}
}
