package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// readRecords loads a JSON-lines record file written with -record.
func readRecords(path string) ([]envelope, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []envelope
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var e envelope
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out = append(out, e)
	}
	return out, sc.Err()
}

// verdict judges set B against set A for one metric: the share by which B's
// median is worse than A's is compared with the bound, unless either set's
// own interquartile spread is wider than the bound, which leaves the
// comparison unresolved.
func verdict(d metricDef, a, b []float64) string {
	if spread(a) > d.Bound || spread(b) > d.Bound {
		return "unresolved"
	}
	ma, mb := median(a), median(b)
	if ma == 0 {
		return "unresolved"
	}
	worse := (mb - ma) / ma
	if d.Better == "higher" {
		worse = -worse
	}
	switch {
	case worse > d.Bound:
		return "worse"
	case worse < -d.Bound:
		return "better"
	}
	return "same"
}

// compareFiles prints one row per (end-to-end metric, workload) for two sets
// of runs, then checks that every exact metric agrees between runs of the
// same workload and seed. It reports whether B is acceptable against A: no
// row worse or unresolved, no exact metric differing.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readRecords(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return false, err
	}
	values := func(es []envelope, workload, name string) []float64 {
		var out []float64
		for _, e := range es {
			if e.Workload == workload && !e.Traced {
				if m, ok := e.Metrics[name]; ok {
					out = append(out, m.Value)
				}
			}
		}
		return out
	}
	ok := true
	fmt.Fprintf(w, "%-12s %-16s %5s  %12s %12s %12s  %12s %12s %12s  %6s  %s\n",
		"workload", "metric", "unit", "A q1", "A median", "A q3", "B q1", "B median", "B q3", "bound", "verdict")
	for _, wl := range workloads {
		for _, d := range endToEnd {
			va, vb := values(a, wl.Name, d.Name), values(b, wl.Name, d.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			a1, a2, a3 := quartiles(va)
			b1, b2, b3 := quartiles(vb)
			v := verdict(d, va, vb)
			if v == "worse" || v == "unresolved" {
				ok = false
			}
			fmt.Fprintf(w, "%-12s %-16s %5s  %12.6g %12.6g %12.6g  %12.6g %12.6g %12.6g  %5.0f%%  %s (n=%d,%d)\n",
				wl.Name, d.Name, d.Unit, a1, a2, a3, b1, b2, b3, 100*d.Bound, v, len(va), len(vb))
		}
	}

	// Exact metrics: compare runs of the same workload, pass and seed.
	type key struct {
		workload string
		traced   bool
		seed     uint64
	}
	first := map[key]envelope{}
	for _, e := range a {
		if _, seen := first[key{e.Workload, e.Traced, e.Seed}]; !seen {
			first[key{e.Workload, e.Traced, e.Seed}] = e
		}
	}
	exact := []string{"factor_mb"}
	for _, d := range perLayer {
		if d.Exact {
			exact = append(exact, d.Name)
		}
	}
	sort.Strings(exact)
	pairs, diffs := 0, 0
	for _, e := range b {
		ea, found := first[key{e.Workload, e.Traced, e.Seed}]
		if !found {
			continue
		}
		pairs++
		for _, name := range exact {
			ma, okA := ea.Metrics[name]
			mb, okB := e.Metrics[name]
			if okA && okB && ma.Value != mb.Value {
				diffs++
				fmt.Fprintf(w, "exact metric differs: %s %s seed %d: %v vs %v\n", e.Workload, name, e.Seed, ma.Value, mb.Value)
			}
		}
	}
	fmt.Fprintf(w, "exact metrics: %d run pairs of equal workload, pass and seed compared, %d values differ\n", pairs, diffs)
	return ok && diffs == 0, nil
}
