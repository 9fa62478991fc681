// Uncertainty quantification and accuracy refinement: the extensions beyond
// the paper's headline pipeline.
//
//  1. PredictWithVariance computes the full conditional distribution (paper
//     eq. 3), giving 95% prediction intervals whose empirical coverage is
//     checked against held-out truth.
//  2. Fit estimates θ̂ by maximum likelihood, concentrating the variance out
//     (θ̂₁ = zᵀR⁻¹z/n) so the search runs over range and smoothness only;
//     the estimate is printed against the generating truth.
//  3. SolveRefined recovers machine-precision solves from a deliberately
//     loose (1e-2) TLR factorization via preconditioned conjugate gradients
//     with matrix-free exact operator applications.
package main

import (
	"fmt"
	"log"
	"math"

	exago "repro"
	"repro/internal/rng"
)

func main() {
	truth := exago.Theta{Variance: 1, Range: 0.2, Smoothness: 0.5}
	syn, err := exago.GenerateSynthetic(400, 40, truth, 11)
	if err != nil {
		log.Fatal(err)
	}
	cfg := exago.Config{Mode: exago.TLR, TileSize: 64, Accuracy: 1e-8, Workers: 4}

	// 1. prediction intervals
	pr, err := exago.PredictWithVariance(syn.Train, syn.TestPoints, truth, cfg)
	if err != nil {
		log.Fatal(err)
	}
	coverage, err := exago.CoverageCheck(pr, syn.TestZ)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("prediction with uncertainty at %d held-out points:\n", len(syn.TestPoints))
	for i := 0; i < 5; i++ {
		fmt.Printf("  point %d: %.3f ± %.3f (truth %.3f)\n", i, pr.Mean[i], pr.CI95(i), syn.TestZ[i])
	}
	fmt.Printf("empirical 95%% interval coverage: %.0f%% (want ≈95%%)\n\n", 100*coverage)

	// 2. maximum likelihood fit against the truth
	fit, err := exago.Fit(syn.Train, cfg, exago.FitOptions{MaxEvals: 150})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("truth: θ  = (%.3f, %.3f, %.3f)\n", truth.Variance, truth.Range, truth.Smoothness)
	fmt.Printf("fit:   θ̂ = (%.3f, %.3f, %.3f), %d evaluations, converged %t\n\n",
		fit.Theta.Variance, fit.Theta.Range, fit.Theta.Smoothness, fit.Evals, fit.Converged)

	// 3. iterative refinement from a loose factorization
	b := make([]float64, syn.Train.N())
	rng.New(5).NormSlice(b)
	x, res, err := exago.SolveRefined(syn.Train, truth, exago.Config{Mode: exago.TLR, TileSize: 64, Accuracy: 1e-2}, b,
		exago.RefineOptions{Tol: 1e-11})
	if err != nil {
		log.Fatal(err)
	}
	var norm float64
	for _, v := range x {
		norm += v * v
	}
	fmt.Printf("refined solve from a 1e-2 TLR preconditioner: %d PCG iterations to rel. residual %.1e (‖x‖=%.3f)\n",
		res.Iterations, res.RelResidual, math.Sqrt(norm))
	fmt.Println("loose compression + a few Krylov iterations ≈ machine-precision solve")
}
