// Command bench is the repository's benchmark: four seeded workloads, an
// untraced pass for the end-to-end metrics and a traced pass for the
// per-layer metrics, with the outputs checked for correctness. README.md in
// this directory is the manual; BENCHMARK.json at the repository root is the
// contract the numbers are judged by.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	goruntime "runtime"
	"sort"
)

func main() {
	var (
		workload = flag.String("workload", "", "run one workload (fit_dense, fit_tlr, lik_scale, serve_mixed); empty runs all four, untraced then traced")
		seed     = flag.Uint64("seed", 1, "every generated input derives from this")
		secs     = flag.Float64("seconds", 30, "how long one run measures")
		trace    = flag.Int("trace", 0, "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics")
		smoke    = flag.Bool("smoke", false, "tiny inputs and 1 s phases through every code path and check")
		compare  = flag.Bool("compare", false, "compare two record files: -compare A.jsonl B.jsonl")
		record   = flag.String("record", "", "append this run's result envelope to the file, one JSON object per line")
		outDir   = flag.String("out", filepath.Join("bench", "out"), "directory for traces, spill files and result files")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(errors.New("usage: -compare A.jsonl B.jsonl"))
		}
		same, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !same {
			os.Exit(1)
		}
		return
	}

	// Go before 1.25 sizes GOMAXPROCS from the host, not the container
	// quota; the benchmark fixes it so load and workers match real cores.
	procs := min(goruntime.NumCPU(), 4)
	goruntime.GOMAXPROCS(procs)

	sz := fullSizes
	if *smoke {
		sz = smokeSizes
		*secs = 1
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}

	type pass struct {
		workload string
		traced   bool
	}
	var passes []pass
	if *workload != "" {
		if _, ok := runners[*workload]; !ok {
			fatal(fmt.Errorf("unknown workload %q", *workload))
		}
		passes = []pass{{*workload, *trace != 0}}
	} else {
		for _, w := range workloads {
			passes = append(passes, pass{w.Name, false}, pass{w.Name, true})
		}
	}

	final := result{Correct: true, Metrics: metrics{}}
	for _, p := range passes {
		c := newRunCtx(p.workload, sz, *seed, *secs, procs, p.traced, *outDir)
		err := runners[p.workload](c)
		res := c.finish(err)
		res.print(os.Stdout)
		if *record != "" {
			if err := appendRecord(*record, c.envelope(res)); err != nil {
				fatal(err)
			}
		}
		final.Correct = final.Correct && res.Correct
		final.Attempted += res.Attempted
		final.Failed += res.Failed
		for name, m := range res.Metrics {
			if len(passes) > 1 {
				name = p.workload + "/" + name
			}
			final.Metrics[name] = m
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !final.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

// result is the last line of a run's output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`

	// The rest is printed and recorded, not part of the last line.
	workload string
	traced   bool
	checks   []check
	notes    []string
}

// print writes the human-readable report of one pass.
func (r result) print(w *os.File) {
	pass := "untraced pass, end-to-end metrics"
	if r.traced {
		pass = "traced pass, per-layer metrics"
	}
	fmt.Fprintf(w, "== %s: %s ==\n", r.workload, pass)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", n, m.Value, m.Unit)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	for _, c := range r.checks {
		verdict := "ok"
		if !c.OK {
			verdict = "FAILED"
		}
		fmt.Fprintf(w, "  check %-34s %s %s\n", c.Name, verdict, c.Detail)
	}
	fmt.Fprintf(w, "  operations attempted %d, failed %d\n", r.Attempted, r.Failed)
}

// runners maps a workload name to the function that runs one pass of it.
var runners = map[string]func(*runCtx) error{
	"fit_dense":   func(c *runCtx) error { return runFit(c, false) },
	"fit_tlr":     func(c *runCtx) error { return runFit(c, true) },
	"lik_scale":   runLik,
	"serve_mixed": runServe,
}
