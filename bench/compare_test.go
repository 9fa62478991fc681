package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "t", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "r", Better: "higher", Bound: 0.10}
	steady := func(centre float64) []float64 {
		return []float64{centre * 0.99, centre, centre * 1.01, centre, centre * 0.995, centre * 1.005}
	}
	noisy := []float64{50, 100, 150, 100, 60, 140}
	cases := []struct {
		d    metricDef
		a, b []float64
		want string
	}{
		{lower, steady(100), steady(103), "same"},
		{lower, steady(100), steady(120), "worse"},
		{lower, steady(100), steady(80), "better"},
		{higher, steady(100), steady(80), "worse"},
		{higher, steady(100), steady(120), "better"},
		{lower, steady(100), noisy, "unresolved"},
		{lower, noisy, steady(100), "unresolved"},
	}
	for _, c := range cases {
		if got := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("verdict(%s %s, %v -> %v) = %s, want %s", c.d.Name, c.d.Better, median(c.a), median(c.b), got, c.want)
		}
	}
}

func TestCompareFilesJudgesTimingsAndExactCounts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, evalS []float64, tasks float64) string {
		path := filepath.Join(dir, name)
		for i, v := range evalS {
			m := metrics{}
			for _, d := range endToEnd {
				m[d.Name] = metric{Value: 1, Unit: d.Unit}
			}
			m["eval_s"] = metric{Value: v, Unit: "s"}
			if err := appendRecord(path, envelope{Workload: "fit_dense", Seed: uint64(i), Metrics: m}); err != nil {
				t.Fatal(err)
			}
			layer := metrics{"runtime.tasks": {Value: tasks, Unit: "count"}, "runtime.busy_s": {Value: v, Unit: "s"}}
			if err := appendRecord(path, envelope{Workload: "fit_dense", Traced: true, Seed: uint64(i), Metrics: layer}); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	base := write("a.jsonl", []float64{1.00, 1.01, 0.99, 1.00, 1.02}, 98)
	again := write("b.jsonl", []float64{1.01, 1.00, 1.00, 0.99, 1.01}, 98)
	slower := write("c.jsonl", []float64{1.30, 1.31, 1.29, 1.30, 1.32}, 98)
	recount := write("d.jsonl", []float64{1.00, 1.01, 0.99, 1.00, 1.02}, 99)

	var out bytes.Buffer
	if ok, err := compareFiles(&out, base, again); err != nil || !ok {
		t.Errorf("two sets of the same commit must agree: ok=%v err=%v\n%s", ok, err, out.String())
	}
	if !strings.Contains(out.String(), "same") || !strings.Contains(out.String(), "0 values differ") {
		t.Errorf("report lacks the verdict or the exact-count line:\n%s", out.String())
	}
	out.Reset()
	if ok, _ := compareFiles(&out, base, slower); ok || !strings.Contains(out.String(), "worse") {
		t.Errorf("a 30%% slower eval_s must be reported worse:\n%s", out.String())
	}
	out.Reset()
	if ok, _ := compareFiles(&out, base, recount); ok || !strings.Contains(out.String(), "exact metric differs: fit_dense runtime.tasks") {
		t.Errorf("a changed task count must be reported:\n%s", out.String())
	}
}
