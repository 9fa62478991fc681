package exprt

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/cov"
	"repro/internal/stats"
)

// fig6Vectors are the three initial parameter vectors of §VIII-D1: weak,
// medium, and strong correlation at smoothness 0.5.
var fig6Vectors = []cov.Params{
	{Variance: 1, Range: 0.03, Smoothness: 0.5},
	{Variance: 1, Range: 0.1, Smoothness: 0.5},
	{Variance: 1, Range: 0.3, Smoothness: 0.5},
}

// technique pairs a display name with a computation config.
type technique struct {
	name string
	cfg  core.Config
}

func fig6Techniques(workers int) []technique {
	mk := func(acc float64) core.Config {
		return core.Config{Mode: core.TLR, TileSize: 64, Accuracy: acc, Workers: workers}
	}
	return []technique{
		{"tlr(1e-7)", mk(1e-7)},
		{"tlr(1e-9)", mk(1e-9)},
		{"tlr(1e-12)", mk(1e-12)},
		{"full-tile", core.Config{Mode: core.FullTile, TileSize: 64, Workers: workers}},
	}
}

// fig6Size returns (n, replicates, maxEvals) per scale. The paper uses 40 K
// locations and 100 replicates; that is reduced here to keep the Monte Carlo
// single-machine-feasible (documented in EXPERIMENTS.md). The small scale's
// fits take 46–68 evaluations; its budget leaves them half as much again.
func fig6Size(s Scale) (int, int, int) {
	if s == ScalePaper {
		return 1600, 25, 120
	}
	return 225, 5, 100
}

// unconverged marks a reported value whose fit stopped at its budget rather
// than at the optimum, so that it is flagged, not averaged in silently.
func unconverged(converged bool) string {
	if converged {
		return ""
	}
	return "!"
}

// Fig6 reproduces Figure 6: Monte-Carlo boxplots of the estimated Matérn
// parameters for each initial vector and each computation technique, with
// how many fits converged and the evaluations they took.
func Fig6(o Options) error {
	o = o.withDefaults()
	n, reps, evals := fig6Size(o.Scale)
	techniques := fig6Techniques(o.Workers)
	fmt.Fprintf(o.Out, "Monte Carlo: n=%d locations, %d measurement vectors per θ (paper: 40K x 100), budget %d evaluations per fit\n", n, reps, evals)

	flagged := false
	for _, truth := range fig6Vectors {
		fmt.Fprintf(o.Out, "\ninitial θ = (%.2g, %.2g, %.2g)\n", truth.Variance, truth.Range, truth.Smoothness)
		probs, err := core.GenerateSyntheticReplicates(n, reps, truth, o.Seed)
		if err != nil {
			return err
		}
		est := make(map[string][]cov.Params)
		flag := make(map[string]string)
		fits := stats.NewTable("technique", "converged", "evals median", "min", "max")
		for _, tq := range techniques {
			var converged int
			var used []float64
			for _, p := range probs {
				fit, err := core.Fit(p, tq.cfg, core.FitOptions{
					Start:    truth, // paper starts optimization near the truth's neighborhood
					MaxEvals: evals,
				})
				if err != nil {
					return fmt.Errorf("fit %s: %w", tq.name, err)
				}
				est[tq.name] = append(est[tq.name], fit.Theta)
				used = append(used, float64(fit.Evals))
				if fit.Converged {
					converged++
				}
			}
			flag[tq.name] = unconverged(converged == reps)
			flagged = flagged || converged < reps
			e := stats.Summarize(used)
			fits.AddRow(tq.name+flag[tq.name], fmt.Sprintf("%d/%d", converged, reps),
				fmt.Sprintf("%.0f", e.Median), fmt.Sprintf("%.0f", e.Min), fmt.Sprintf("%.0f", e.Max))
		}
		fmt.Fprint(o.Out, indent(fits.String(), "  "))
		for compIdx, compName := range []string{"θ1 (variance)", "θ2 (range)", "θ3 (smoothness)"} {
			trueVal := [3]float64{truth.Variance, truth.Range, truth.Smoothness}[compIdx]
			fmt.Fprintf(o.Out, "  %s — true value %.3g\n", compName, trueVal)
			tb := stats.NewTable("technique", "median", "q1", "q3", "min", "max")
			for _, tq := range techniques {
				vals := make([]float64, 0, reps)
				for _, th := range est[tq.name] {
					vals = append(vals, [3]float64{th.Variance, th.Range, th.Smoothness}[compIdx])
				}
				s := stats.Summarize(vals)
				tb.AddRow(tq.name+flag[tq.name],
					fmt.Sprintf("%.4g", s.Median), fmt.Sprintf("%.4g", s.Q1), fmt.Sprintf("%.4g", s.Q3),
					fmt.Sprintf("%.4g", s.Min), fmt.Sprintf("%.4g", s.Max))
			}
			fmt.Fprint(o.Out, indent(tb.String(), "  "))
		}
	}
	if flagged {
		fmt.Fprintf(o.Out, "\n! = a fit in this row stopped at its budget of %d evaluations without converging\n", evals)
	}
	fmt.Fprintln(o.Out, "\npaper finding to compare: weakly correlated data is recovered at every accuracy;")
	fmt.Fprintln(o.Out, "strong correlation (θ2=0.3) needs the tightest TLR accuracy to match full-tile")
	return nil
}

// Fig7 reproduces Figure 7: prediction MSE of 100 missing values under each
// technique for the three parameter vectors.
func Fig7(o Options) error {
	o = o.withDefaults()
	n, reps, _ := fig6Size(o.Scale)
	nMiss := 100
	if o.Scale == ScaleSmall {
		nMiss = 25
	}
	techniques := fig6Techniques(o.Workers)
	fmt.Fprintf(o.Out, "prediction of %d missing values, %d replicates per θ\n", nMiss, reps)
	for _, truth := range fig6Vectors {
		fmt.Fprintf(o.Out, "\ninitial θ = (%.2g, %.2g, %.2g)\n", truth.Variance, truth.Range, truth.Smoothness)
		tb := stats.NewTable("technique", "mse median", "q1", "q3", "min", "max")
		mseAll := make(map[string][]float64)
		for rep := 0; rep < reps; rep++ {
			syn, err := core.GenerateSynthetic(n+nMiss, nMiss, truth, o.Seed+uint64(rep)*977)
			if err != nil {
				return err
			}
			for _, tq := range techniques {
				pred, err := core.Predict(syn.Train, syn.TestPoints, truth, tq.cfg)
				if err != nil {
					return fmt.Errorf("predict %s: %w", tq.name, err)
				}
				mseAll[tq.name] = append(mseAll[tq.name], core.MSE(pred, syn.TestZ))
			}
		}
		for _, tq := range techniques {
			s := stats.Summarize(mseAll[tq.name])
			tb.AddRow(tq.name,
				fmt.Sprintf("%.4g", s.Median), fmt.Sprintf("%.4g", s.Q1), fmt.Sprintf("%.4g", s.Q3),
				fmt.Sprintf("%.4g", s.Min), fmt.Sprintf("%.4g", s.Max))
		}
		fmt.Fprint(o.Out, tb.String())
	}
	fmt.Fprintln(o.Out, "\npaper finding to compare: TLR matches full-tile prediction MSE at every accuracy,")
	fmt.Fprintln(o.Out, "and MSE decreases as the correlation strengthens (≈0.124 / 0.036 / 0.012 at paper scale)")
	return nil
}

func indent(s, pre string) string {
	out := ""
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out += pre + s[start:i+1]
			start = i + 1
		}
	}
	if start < len(s) {
		out += pre + s[start:]
	}
	return out
}
