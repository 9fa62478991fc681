package stats

import (
	"math"
	"strings"
	"testing"
)

func TestSummarizeKnown(t *testing.T) {
	s := Summarize([]float64{5, 1, 3, 2, 4})
	if s.Min != 1 || s.Max != 5 || s.Median != 3 || s.Q1 != 2 || s.Q3 != 4 || s.Mean != 3 || s.N != 5 {
		t.Fatalf("summary wrong: %+v", s)
	}
}

func TestSummarizeInterpolates(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4})
	if math.Abs(s.Median-2.5) > 1e-15 {
		t.Fatalf("median %g want 2.5", s.Median)
	}
	if math.Abs(s.Q1-1.75) > 1e-15 || math.Abs(s.Q3-3.25) > 1e-15 {
		t.Fatalf("quartiles %g %g", s.Q1, s.Q3)
	}
}

func TestSummarizeSingleton(t *testing.T) {
	s := Summarize([]float64{7})
	if s.Min != 7 || s.Max != 7 || s.Median != 7 {
		t.Fatalf("singleton summary wrong: %+v", s)
	}
}

func TestSummarizeDoesNotMutate(t *testing.T) {
	in := []float64{3, 1, 2}
	Summarize(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Fatal("input mutated")
	}
}

func TestSummarizePanicsEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Summarize(nil)
}

func TestMeanStd(t *testing.T) {
	m, s := MeanStd([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if m != 5 || math.Abs(s-2) > 1e-12 {
		t.Fatalf("mean=%g std=%g", m, s)
	}
	m0, s0 := MeanStd(nil)
	if m0 != 0 || s0 != 0 {
		t.Fatal("empty MeanStd should be 0,0")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("region", "θ1", "θ2")
	tb.AddRow("R1", "0.85", "6.04")
	tb.AddRow("R2", "0.38")
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("expected 4 lines, got %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "region") || !strings.Contains(lines[2], "R1") {
		t.Fatalf("table malformed:\n%s", out)
	}
	// aligned columns: θ1 column starts at same offset in all rows
	c0 := strings.Index(lines[0], "θ1")
	c2 := strings.Index(lines[2], "0.85")
	if c0 < 0 || c2 < 0 {
		t.Fatalf("columns missing:\n%s", out)
	}
}
