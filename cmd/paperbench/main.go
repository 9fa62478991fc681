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
// substitutions).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/exprt"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment to run (fig2..fig9, table1, table2, ablation, all)")
		scale   = flag.String("scale", "small", "experiment scale: small | paper")
		workers = flag.Int("workers", runtime.NumCPU(), "runtime worker count")
		seed    = flag.Uint64("seed", 0, "override the experiment seed (0 = default)")
		list    = flag.Bool("list", false, "list experiments and exit")
		kernels = flag.String("kernels", "", "run the compute-kernel micro-benchmarks, write the JSON report to this path (e.g. BENCH_kernels.json), and exit")
		tlrpath = flag.String("tlr", "", "run the parallel TLR assemble+compress benchmark, write the JSON report to this path (e.g. BENCH_tlr.json), and exit")
		dist    = flag.String("dist", "", "run the distributed TLR benchmark (likelihood agreement + comm-model validation), write the JSON report to this path (e.g. BENCH_dist.json), and exit")
		trace   = flag.String("trace", "", "run the traced dense+TLR Cholesky executions, write the schedule report to this path (e.g. BENCH_trace.json) plus a Chrome trace artifact (.trace.json) next to it, and exit")
		chaosp  = flag.String("chaos", "", "run the fault-tolerance benchmark (retry overhead + chaos-injected recovery on the n=1600 TLR Cholesky), write the JSON report to this path (e.g. BENCH_chaos.json), and exit")
		order   = flag.String("order", "", "run the spatial-ordering sweep (none/morton/hilbert/kdblock x uniform/clustered: tile ranks, TLR bytes, factor makespan, per-rank comm), write the JSON report to this path (e.g. BENCH_order.json), and exit")
		modes   = flag.String("modes", "", "race every registered evaluator backend (full-block/full-tile/tlr/hodlr) on one clustered dataset: first/steady eval time, storage, rank structure, predict throughput, agreement with dense; write the JSON report to this path (e.g. BENCH_modes.json), and exit")
		ooc     = flag.String("ooc", "", "run the out-of-core proof (n=100k TLR likelihood under a memory budget several times below the matrix, bitwise vs unbounded; interrupted-fit checkpoint resume; 2.4M-point cluster replay), write the JSON report to this path (e.g. BENCH_ooc.json), and exit")
		elastic = flag.String("elastic", "", "run the elastic-recovery benchmark (no-fault overhead of arming recovery + a 6-rank likelihood that loses a rank mid-Cholesky and must finish bitwise on 5 survivors), write the JSON report to this path (e.g. BENCH_elastic.json), and exit")
	)
	flag.Parse()

	if *kernels != "" {
		opts := exprt.Options{Out: os.Stdout, Workers: *workers, Seed: *seed}
		if err := exprt.WriteKernelBench(*kernels, opts); err != nil {
			fmt.Fprintf(os.Stderr, "paperbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *tlrpath != "" {
		opts := exprt.Options{Out: os.Stdout, Workers: *workers, Seed: *seed}
		if err := exprt.WriteTLRBench(*tlrpath, opts); err != nil {
			fmt.Fprintf(os.Stderr, "paperbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *trace != "" {
		opts := exprt.Options{Out: os.Stdout, Workers: *workers, Seed: *seed}
		if err := exprt.WriteTraceBench(*trace, opts); err != nil {
			fmt.Fprintf(os.Stderr, "paperbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *chaosp != "" {
		opts := exprt.Options{Out: os.Stdout, Workers: *workers, Seed: *seed}
		if err := exprt.WriteChaosBench(*chaosp, opts); err != nil {
			fmt.Fprintf(os.Stderr, "paperbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *modes != "" {
		opts := exprt.Options{Out: os.Stdout, Workers: *workers, Seed: *seed}
		if err := exprt.WriteModesBench(*modes, opts); err != nil {
			fmt.Fprintf(os.Stderr, "paperbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *order != "" {
		opts := exprt.Options{Out: os.Stdout, Workers: *workers, Seed: *seed}
		if err := exprt.WriteOrderBench(*order, opts); err != nil {
			fmt.Fprintf(os.Stderr, "paperbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *ooc != "" {
		opts := exprt.Options{Out: os.Stdout, Workers: *workers, Seed: *seed}
		if err := exprt.WriteOOCBench(*ooc, opts); err != nil {
			fmt.Fprintf(os.Stderr, "paperbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *elastic != "" {
		opts := exprt.Options{Out: os.Stdout, Workers: *workers, Seed: *seed}
		if err := exprt.WriteElasticBench(*elastic, opts); err != nil {
			fmt.Fprintf(os.Stderr, "paperbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *dist != "" {
		opts := exprt.Options{Out: os.Stdout, Workers: *workers, Seed: *seed}
		if err := exprt.WriteDistBench(*dist, opts); err != nil {
			fmt.Fprintf(os.Stderr, "paperbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *list {
		for _, e := range exprt.Experiments {
			fmt.Printf("%-10s %s\n", e.Name, e.Title)
		}
		return
	}

	opts := exprt.Options{Out: os.Stdout, Workers: *workers, Seed: *seed}
	switch *scale {
	case "small":
		opts.Scale = exprt.ScaleSmall
	case "paper":
		opts.Scale = exprt.ScalePaper
	default:
		fmt.Fprintf(os.Stderr, "paperbench: unknown scale %q\n", *scale)
		os.Exit(2)
	}

	t0 := time.Now()
	var err error
	if *exp == "all" {
		err = exprt.RunAll(opts)
	} else {
		var e exprt.Experiment
		e, err = exprt.ByName(*exp)
		if err == nil {
			fmt.Printf("========== %s — %s ==========\n", e.Name, e.Title)
			err = e.Run(opts)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "paperbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("\n[completed in %s]\n", time.Since(t0).Round(time.Millisecond))
}
