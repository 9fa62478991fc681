package exprt

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/cov"
	"repro/internal/la"
	"repro/internal/rng"
	"repro/internal/stats"
)

// Extensions reports the beyond-the-paper features: conditional prediction
// variance with interval coverage, the concentrated maximum likelihood fit,
// and iterative accuracy refinement. It is part of the default suite so a full
// `paperbench -exp all` documents them alongside the paper's figures.
func Extensions(o Options) error {
	o = o.withDefaults()
	truth := cov.Params{Variance: 1, Range: 0.2, Smoothness: 0.5}
	n, nMiss := 324, 36
	if o.Scale == ScalePaper {
		n, nMiss = 900, 100
	}
	cfg := core.Config{Mode: core.TLR, TileSize: 64, Accuracy: 1e-8, Workers: o.Workers}

	// --- 1. prediction intervals --------------------------------------
	fmt.Fprintf(o.Out, "[1] conditional prediction variance (paper eq. 3), n=%d, %d held out\n", n, nMiss)
	var pooledIn, pooledTot int
	var mses []float64
	reps := 5
	for rep := 0; rep < reps; rep++ {
		syn, err := core.GenerateSynthetic(n+nMiss, nMiss, truth, o.Seed+uint64(rep)*31)
		if err != nil {
			return err
		}
		pr, err := core.PredictWithVariance(syn.Train, syn.TestPoints, truth, cfg)
		if err != nil {
			return err
		}
		covg, err := core.CoverageCheck(pr, syn.TestZ)
		if err != nil {
			return err
		}
		pooledIn += int(covg*float64(nMiss) + 0.5)
		pooledTot += nMiss
		mses = append(mses, core.MSE(pr.Mean, syn.TestZ))
	}
	s := stats.Summarize(mses)
	fmt.Fprintf(o.Out, "MSE median %.4g (q1 %.4g, q3 %.4g); 95%% interval coverage %.0f%% over %d predictions (want ≈95%%)\n\n",
		s.Median, s.Q1, s.Q3, 100*float64(pooledIn)/float64(pooledTot), pooledTot)

	// --- 2. maximum likelihood fit -------------------------------------
	fmt.Fprintf(o.Out, "[2] maximum likelihood fit, θ₁ concentrated out (θ̂₁ = zᵀR⁻¹z/n), n=%d\n", n)
	syn, err := core.GenerateSynthetic(n, 0, truth, o.Seed)
	if err != nil {
		return err
	}
	fit, err := core.Fit(syn.Train, cfg, core.FitOptions{MaxEvals: 150})
	if err != nil {
		return err
	}
	fmt.Fprintf(o.Out, "truth θ = (%.4f, %.4f, %.4f)\nfit   θ̂ = (%.4f, %.4f, %.4f), loglik %.3f, %d evaluations, converged %t\n\n",
		truth.Variance, truth.Range, truth.Smoothness, fit.Theta.Variance, fit.Theta.Range, fit.Theta.Smoothness,
		fit.LogL, fit.Evals, fit.Converged)

	// --- 3. iterative refinement ---------------------------------------
	fmt.Fprintf(o.Out, "[3] accuracy refinement: loose TLR preconditioner + PCG with exact matvec\n")
	b := make([]float64, syn.Train.N())
	rng.New(o.Seed + 7).NormSlice(b)
	rt := stats.NewTable("preconditioner acc", "pcg iterations", "final rel residual")
	for _, acc := range []float64{1e-1, 1e-2, 1e-4, 1e-6} {
		_, res, err := core.SolveRefined(syn.Train, truth, core.Config{Mode: core.TLR, TileSize: 64, Accuracy: acc, Workers: o.Workers},
			b, core.RefineOptions{Tol: 1e-11})
		switch {
		case errors.Is(err, la.ErrNotPositiveDefinite):
			// a result about this preconditioner, not a failed experiment: a
			// TLR approximation this loose need not be positive definite
			rt.AddRow(fmt.Sprintf("%.0e", acc), "not SPD", "-")
		case err != nil:
			return err
		default:
			rt.AddRow(fmt.Sprintf("%.0e", acc), fmt.Sprintf("%d", res.Iterations), fmt.Sprintf("%.1e", res.RelResidual))
		}
	}
	fmt.Fprint(o.Out, rt.String())
	fmt.Fprintln(o.Out, "looser factorizations cost more Krylov iterations — the accuracy/effort dial the paper's conclusion anticipates")
	return nil
}
