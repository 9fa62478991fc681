// Command paperbench regenerates every table and figure of the paper's
// evaluation section (§VIII):
//
//	paperbench -exp fig3              # one experiment at laptop scale
//	paperbench -exp all -scale paper  # the full suite at paper scale
//	paperbench -list                  # enumerate experiments
//
// Performance figures combine real measured runs at laptop sizes with
// machine-simulated runs at the paper's sizes; statistical figures run the
// real estimation pipeline end to end (see EXPERIMENTS.md for the scale
// substitutions). Timing the library itself is the job of bench/ (see
// BENCHMARK.json), not of this command.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/exprt"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

// run is main without the process exit: results and requested help go to out,
// diagnostics to standard error; it returns the exit status (2 = usage error).
func run(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("paperbench", flag.ContinueOnError)
	fs.SetOutput(io.Discard) // Parse returns what it would print; where that goes is decided below
	var (
		exp     = fs.String("exp", "all", "experiment to run: "+strings.Join(exprt.Names(), ", ")+", or all")
		scale   = fs.String("scale", "small", "experiment scale: small | paper")
		workers = fs.Int("workers", runtime.NumCPU(), "runtime worker count")
		seed    = fs.Uint64("seed", 0, "override the experiment seed (0 = default)")
		list    = fs.Bool("list", false, "list experiments and exit")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			fs.SetOutput(out)
			fs.Usage()
			return 0
		}
		fmt.Fprintf(os.Stderr, "paperbench: %v (-h lists the flags)\n", err)
		return 2
	}

	if *list {
		for _, e := range exprt.Experiments {
			fmt.Fprintf(out, "%-10s %s\n", e.Name, e.Title)
		}
		return 0
	}

	opts := exprt.Options{Out: out, Workers: *workers, Seed: *seed}
	switch *scale {
	case "small":
		opts.Scale = exprt.ScaleSmall
	case "paper":
		opts.Scale = exprt.ScalePaper
	default:
		fmt.Fprintf(os.Stderr, "paperbench: unknown scale %q\n", *scale)
		return 2
	}
	runExp := exprt.RunAll
	if *exp != "all" {
		e, err := exprt.ByName(*exp)
		if err != nil {
			fmt.Fprintf(os.Stderr, "paperbench: %v\n", err)
			return 2
		}
		runExp = func(o exprt.Options) error {
			fmt.Fprintf(out, "========== %s — %s ==========\n", e.Name, e.Title)
			return e.Run(o)
		}
	}

	t0 := time.Now()
	if err := runExp(opts); err != nil {
		fmt.Fprintf(os.Stderr, "paperbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(out, "\n[completed in %s]\n", time.Since(t0).Round(time.Millisecond))
	return 0
}
