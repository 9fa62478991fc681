// Soil-moisture regional analysis: the Table-I workflow on the simulated
// Mississippi-basin dataset. Each of the eight regions is fitted
// independently with TLR at two accuracies and with the exact full-tile
// mode, and the estimates are compared against the generating truth (the
// paper's full-tile estimates).
package main

import (
	"fmt"
	"log"

	exago "repro"
)

func main() {
	const perRegion = 256
	ds, err := exago.SoilMoisture(perRegion, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %d regions, %d locations each (paper: ~250K each)\n\n", ds.Name, len(ds.Regions), perRegion)
	fmt.Printf("%-4s %-28s %-28s %-28s\n", "", "tlr(1e-7)", "full-tile", "truth")

	for _, reg := range ds.Regions {
		prob, err := exago.NewProblem(reg.Points, reg.Z, ds.Metric)
		if err != nil {
			log.Fatal(err)
		}
		opts := exago.FitOptions{
			Start:    exago.Theta{Range: reg.Truth.Range, Smoothness: 0.8},
			Upper:    exago.Theta{Range: 50 * reg.Truth.Range, Smoothness: 3},
			MaxEvals: 150,
		}
		tlrFit, err := exago.Fit(prob, exago.Config{Mode: exago.TLR, TileSize: 64, Accuracy: 1e-7, Workers: 4}, opts)
		if err != nil {
			log.Fatal(err)
		}
		exactFit, err := exago.Fit(prob, exago.Config{Mode: exago.FullTile, TileSize: 64, Workers: 4}, opts)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-4s (%6.3f, %6.3f, %5.3f)      (%6.3f, %6.3f, %5.3f)      (%6.3f, %6.3f, %5.3f)\n",
			reg.Name,
			tlrFit.Theta.Variance, tlrFit.Theta.Range, tlrFit.Theta.Smoothness,
			exactFit.Theta.Variance, exactFit.Theta.Range, exactFit.Theta.Smoothness,
			reg.Truth.Variance, reg.Truth.Range, reg.Truth.Smoothness)
	}
	fmt.Println("\nTLR estimates should track full-tile closely; both approximate the truth")
	fmt.Println("(single realizations at this size carry real statistical spread, as in the paper)")
}
