// Wind-speed analysis on the sphere: the Table-II workflow. The simulated
// Arabian-Peninsula wind field uses great-circle (haversine) distances and a
// smoother Matérn process (θ₃ > 1), which stresses the general-order Bessel
// path. The example fits one region across a sweep of TLR accuracies and
// reports how the estimate and the compression ranks respond.
package main

import (
	"fmt"
	"log"

	exago "repro"
)

func main() {
	const perRegion = 256
	ds, err := exago.WindSpeed(perRegion, 3)
	if err != nil {
		log.Fatal(err)
	}
	reg := ds.Regions[0]
	fmt.Printf("%s %s: %d locations, great-circle metric, truth θ = (%.3f, %.3f, %.3f)\n\n",
		ds.Name, reg.Name, perRegion, reg.Truth.Variance, reg.Truth.Range, reg.Truth.Smoothness)

	prob, err := exago.NewProblem(reg.Points, reg.Z, ds.Metric)
	if err != nil {
		log.Fatal(err)
	}
	opts := exago.FitOptions{
		Start:    exago.Theta{Range: reg.Truth.Range, Smoothness: 1.0},
		Upper:    exago.Theta{Range: 50 * reg.Truth.Range, Smoothness: 3},
		MaxEvals: 150,
	}

	fmt.Printf("%-12s %-26s %-10s %-10s\n", "accuracy", "θ̂ (variance, range, ν)", "max rank", "storage")
	for _, acc := range []float64{1e-5, 1e-7, 1e-9} {
		cfg := exago.Config{Mode: exago.TLR, TileSize: 64, Accuracy: acc, Workers: 4}
		fit, err := exago.Fit(prob, cfg, opts)
		if err != nil {
			log.Fatal(err)
		}
		lik, err := exago.LogLikelihood(prob, fit.Theta, cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-12.0e (%7.3f, %6.3f, %5.3f)   %-10d %.1f KB\n",
			acc, fit.Theta.Variance, fit.Theta.Range, fit.Theta.Smoothness,
			lik.MaxRank, float64(lik.Bytes)/1e3)
	}

	exact, err := exago.Fit(prob, exago.Config{Mode: exago.FullTile, TileSize: 64, Workers: 4}, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-12s (%7.3f, %6.3f, %5.3f)\n", "full-tile", exact.Theta.Variance, exact.Theta.Range, exact.Theta.Smoothness)
	fmt.Println("\nas in Table II, smoother strongly-correlated fields need tighter TLR accuracy;")
	fmt.Println("ranks (and storage) grow as the threshold tightens")
}
