// Distributed-memory walkthrough: price the TLR and dense MLE iterations on
// the modeled 256-node Cray XC40 (the Fig. 4(a) machine) and print the
// modeled time, the per-node memory, and the out-of-memory boundary the
// paper's missing points come from.
package main

import (
	"fmt"

	exago "repro"
)

func main() {
	machine := exago.NewMachine(exago.ShaheenNode, 256)
	fmt.Printf("machine: %d x %s nodes (%d cores), %dx%d process grid\n\n",
		machine.Nodes, machine.Profile.Name, machine.Nodes*machine.Profile.Cores,
		machine.Grid.P, machine.Grid.Q)

	truth := exago.Theta{Variance: 1, Range: 0.1, Smoothness: 0.5}
	ranks := exago.CalibrateRankModel(1e-7, truth, 1024, 128)
	fmt.Println("rank model calibrated from real SVD compressions of Matérn tiles")
	fmt.Printf("predicted rank at nb=1900: adjacent tiles %d, distant tiles %d\n\n",
		ranks.Rank(1900, 1), ranks.Rank(1900, 20))

	fmt.Printf("%-10s %-12s %-12s %-14s %-14s\n", "n", "full-tile", "tlr(1e-7)", "dense mem/node", "tlr mem/node")
	for _, n := range []int{250_000, 500_000, 1_000_000, 2_000_000} {
		dense := exago.AnalyticCholesky(machine, exago.Workload{N: n, NB: 560, Variant: exago.DenseVariant})
		tlr := exago.AnalyticCholesky(machine, exago.Workload{N: n, NB: 1900, Variant: exago.TLRWorkload, Ranks: ranks})
		fmt.Printf("%-10d %-12s %-12s %-14s %-14s\n", n,
			fmtres(dense), fmtres(tlr),
			fmt.Sprintf("%.1f GB", float64(dense.MaxNodeBytes)/1e9),
			fmt.Sprintf("%.1f GB", float64(tlr.MaxNodeBytes)/1e9))
	}
	fmt.Println("\nthe dense variant exceeds the 128 GB node memory at 2M locations (the paper's")
	fmt.Println("missing points); TLR compresses the factor ~20x and keeps fitting")
}

func fmtres(r exago.SimResult) string {
	if r.OOM {
		return "OOM"
	}
	return fmt.Sprintf("%.1fs", r.Seconds)
}
