package exprt

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/cov"
	"repro/internal/stats"
)

// maternRef is the parameter vector the performance studies use
// (medium correlation, paper §VIII-B).
func maternRef() cov.Params { return cov.Params{Variance: 1, Range: 0.1, Smoothness: 0.5} }

// tlrAccs are the TLR accuracy thresholds of Fig. 3.
var tlrAccs = []float64{1e-5, 1e-7, 1e-9, 1e-12}

// rankModels holds the rank model of each accuracy the simulated studies have
// asked for. Calibration really compresses Matérn tiles (seeded, so the same
// model every time): once per process is enough.
var rankModels sync.Map

func rankModel(acc float64) *cluster.RankModel {
	m, ok := rankModels.Load(acc)
	if !ok {
		m, _ = rankModels.LoadOrStore(acc, cluster.CalibrateRankModel(acc, maternRef(), 1024, 128))
	}
	return m.(*cluster.RankModel)
}

// accLabel renders an accuracy as the paper's legends do: 1e-9, not 1e-09.
func accLabel(acc float64) string {
	return strings.Replace(fmt.Sprintf("%.0e", acc), "e-0", "e-", 1)
}

// fmtSecs renders a simulated/measured duration or OOM.
func fmtSecs(s float64, oom bool) string {
	if oom {
		return "OOM"
	}
	switch {
	case s < 1e-3:
		return fmt.Sprintf("%.3gms", s*1e3)
	case s < 1:
		return fmt.Sprintf("%.0fms", s*1e3)
	default:
		return fmt.Sprintf("%.1fs", s)
	}
}

// simSweep prints one panel of a simulated figure: a row per problem size,
// full-tile at nb=560 and TLR at nb=1900 per accuracy across (the paper's
// tile sizes, §VIII-C), before them the full-block LAPACK baseline when the
// machine is a single shared-memory node, OOM where the model says the
// working set does not fit. It returns the largest full-tile/TLR ratio among
// the cells that fit.
func simSweep(o Options, m cluster.Machine, sizes []int, accs []float64,
	model func(cluster.Machine, cluster.Workload) cluster.Result) (maxSpeedup float64) {
	block := m.Nodes == 1
	head := []string{"n"}
	if block {
		head = append(head, "full-block")
	}
	head = append(head, "full-tile")
	for _, acc := range accs {
		head = append(head, "tlr("+accLabel(acc)+")")
	}
	tb := stats.NewTable(head...)
	for _, n := range sizes {
		row := []string{fmt.Sprintf("%d", n)}
		if block {
			blk := cluster.SimulateBlockCholesky(m, n)
			row = append(row, fmtSecs(blk.Seconds, blk.OOM))
		}
		til := model(m, cluster.Workload{N: n, NB: 560, Variant: cluster.Dense})
		row = append(row, fmtSecs(til.Seconds, til.OOM))
		for _, acc := range accs {
			r := model(m, cluster.Workload{N: n, NB: 1900, Variant: cluster.TLRVariant, Ranks: rankModel(acc)})
			row = append(row, fmtSecs(r.Seconds, r.OOM))
			if !r.OOM && !til.OOM {
				maxSpeedup = max(maxSpeedup, til.Seconds/r.Seconds)
			}
		}
		tb.AddRow(row...)
	}
	fmt.Fprint(o.Out, tb.String())
	return maxSpeedup
}

// Fig3 reproduces Figure 3: time of one MLE iteration (generation +
// factorization + solve) versus problem size, comparing full-block,
// full-tile, and TLR at four accuracies.
//
// Part A times the real Go implementation at laptop sizes, each cell the
// median of three evaluations on one session (TLR cells run on the KD-block
// order a TLR session picks by default, with the randomized compressor every
// session runs); part B prices the same iteration at
// the paper's problem sizes on the paper's four Intel testbed profiles with
// cluster's roofline model (AnalyticCholesky, true tile granularity).
func Fig3(o Options) error {
	o = o.withDefaults()
	th := maternRef()

	// --- Part A: measured wall-clock at laptop scale ------------------
	var sizes []int
	if o.Scale == ScalePaper {
		sizes = []int{400, 900, 1600, 2500, 3600}
	} else {
		sizes = []int{256, 400, 900}
	}
	fmt.Fprintf(o.Out, "[A] measured one-iteration time (this machine, %d workers)\n", o.Workers)
	tb := stats.NewTable("n", "full-block", "full-tile", "tlr(1e-5)", "tlr(1e-7)", "tlr(1e-9)", "tlr(1e-12)")
	var lastSpeedup float64
	crossover := 0 // the smallest n at which tlr(1e-5) beats full-tile
	for _, n := range sizes {
		syn, err := core.GenerateSynthetic(n, 0, th, o.Seed)
		if err != nil {
			return err
		}
		row := []string{fmt.Sprintf("%d", n)}
		// The median of three evaluations on one session, so neither the
		// first call's allocations nor one noisy sample decides the
		// crossover.
		timeOf := func(cfg core.Config) (float64, error) {
			s, err := core.NewSession(syn.Train, cfg)
			if err != nil {
				return 0, err
			}
			defer s.Close()
			var ts [3]float64
			for i := range ts {
				t0 := time.Now()
				if _, err := s.LogLikelihood(th); err != nil {
					return 0, err
				}
				ts[i] = time.Since(t0).Seconds()
			}
			slices.Sort(ts[:])
			return ts[1], nil
		}
		tb1, err := timeOf(core.Config{Mode: core.FullBlock, Workers: o.Workers})
		if err != nil {
			return err
		}
		tb2, err := timeOf(core.Config{Mode: core.FullTile, TileSize: 128, Workers: o.Workers})
		if err != nil {
			return err
		}
		row = append(row, fmtSecs(tb1, false), fmtSecs(tb2, false))
		for _, acc := range tlrAccs {
			tt, err := timeOf(core.Config{Mode: core.TLR, TileSize: 128, Accuracy: acc, Workers: o.Workers})
			if err != nil {
				return err
			}
			row = append(row, fmtSecs(tt, false))
			if acc == 1e-5 {
				lastSpeedup = tb2 / tt
				if crossover == 0 && tt < tb2 {
					crossover = n
				}
			}
		}
		tb.AddRow(row...)
	}
	fmt.Fprint(o.Out, tb.String())
	fmt.Fprintf(o.Out, "measured full-tile/TLR(1e-5) speedup at n=%d: %.2fx\n", sizes[len(sizes)-1], lastSpeedup)
	if crossover > 0 {
		fmt.Fprintf(o.Out, "smallest measured n at which tlr(1e-5) beats full-tile: %d\n", crossover)
	} else {
		fmt.Fprintf(o.Out, "tlr(1e-5) beats full-tile at no measured n up to n = %d\n", sizes[len(sizes)-1])
	}
	fmt.Fprintln(o.Out, "\npart B's TLR ranks come from cluster.RankModel, calibrated on tiles compressed by tlr.CompressSVD, the accuracy reference")
	fig3Simulated(o)
	return nil
}

// fig3Simulated is part B of Fig. 3: the paper's sizes on the four testbeds.
func fig3Simulated(o Options) {
	sizes := []int{55225, 63001, 71289, 79524, 87616, 96100, 104329, 112225}
	if o.Scale == ScaleSmall {
		sizes = []int{55225, 79524, 112225}
	}
	for _, prof := range []cluster.Profile{cluster.Haswell, cluster.Broadwell, cluster.KNL, cluster.Skylake} {
		fmt.Fprintf(o.Out, "\n[B] simulated one-iteration time — %s (%d cores)\n", prof.Name, prof.Cores)
		s := simSweep(o, cluster.NewMachine(prof, 1), sizes, []float64{1e-12, 1e-9, 1e-7, 1e-5}, cluster.AnalyticCholesky)
		fmt.Fprintf(o.Out, "max TLR speedup vs full-tile on %s: %.1fx (paper: 5x-13x across testbeds)\n", prof.Name, s)
	}
}

// Fig4 reproduces Figure 4: simulated one-iteration time on the Cray XC40
// with 256 and 1024 nodes, full-tile versus TLR at 1e-5/1e-7/1e-9. Missing
// (OOM) points mirror the paper's out-of-memory gaps.
func Fig4(o Options) error {
	o = o.withDefaults()
	configs := []struct {
		nodes int
		sizes []int
	}{
		{256, []int{100_000, 200_000, 250_000, 500_000, 750_000, 1_000_000}},
		{1024, []int{250_000, 500_000, 750_000, 1_000_000, 2_000_000}},
	}
	if o.Scale == ScaleSmall {
		configs[0].sizes = []int{100_000, 500_000, 1_000_000}
		configs[1].sizes = []int{250_000, 1_000_000, 2_000_000}
	}
	for _, cfg := range configs {
		fmt.Fprintf(o.Out, "\nsimulated Cray XC40, %d nodes (%d cores)\n", cfg.nodes, cfg.nodes*cluster.ShaheenNode.Cores)
		s := simSweep(o, cluster.NewMachine(cluster.ShaheenNode, cfg.nodes), cfg.sizes, []float64{1e-9, 1e-7, 1e-5}, cluster.AnalyticCholesky)
		fmt.Fprintf(o.Out, "max TLR speedup vs full-tile on %d nodes: %.1fx (paper: up to 5x)\n", cfg.nodes, s)
	}
	return nil
}

// Fig5 reproduces Figure 5: simulated time of the TLR prediction operation
// (100 unknown measurements) on 256 Cray nodes. As in the paper, the curves
// track Fig. 4(a) because the Cholesky factorization dominates.
func Fig5(o Options) error {
	o = o.withDefaults()
	sizes := []int{100_000, 200_000, 250_000, 500_000, 750_000, 1_000_000}
	if o.Scale == ScaleSmall {
		sizes = []int{100_000, 500_000, 1_000_000}
	}
	fmt.Fprintf(o.Out, "simulated prediction of 100 unknowns, Cray XC40, 256 nodes\n")
	predict := func(m cluster.Machine, w cluster.Workload) cluster.Result {
		return cluster.AnalyticPrediction(m, w, 100)
	}
	simSweep(o, cluster.NewMachine(cluster.ShaheenNode, 256), sizes, []float64{1e-9, 1e-7, 1e-5}, predict)
	fmt.Fprintln(o.Out, "prediction time tracks the MLE iteration of Fig. 4(a): the factorization dominates")
	return nil
}
