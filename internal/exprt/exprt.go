// Package exprt is the experiment harness: one function per table/figure of
// the paper's evaluation (§VIII), each printing the same rows/series the
// paper reports. cmd/paperbench drives it.
//
// Two scales are supported. ScaleSmall (the default) runs real computations
// at laptop size and the simulated performance studies at three of the
// paper's problem sizes per panel, so every experiment finishes in at most a
// few minutes. ScalePaper uses all of the paper's problem sizes for the
// simulated performance studies and larger (but still
// single-machine-feasible) sizes for the statistical studies.
package exprt

import (
	"fmt"
	"io"
)

// Scale selects experiment sizing.
type Scale int

// Experiment scales.
const (
	ScaleSmall Scale = iota
	ScalePaper
)

// Options configures a harness run.
type Options struct {
	Scale   Scale
	Out     io.Writer
	Workers int
	Seed    uint64
}

func (o Options) withDefaults() Options {
	if o.Out == nil {
		o.Out = io.Discard
	}
	if o.Workers <= 0 {
		o.Workers = 1
	}
	if o.Seed == 0 {
		o.Seed = 20180904 // CLUSTER 2018 conference date
	}
	return o
}

// Experiment is a named reproduction unit.
type Experiment struct {
	Name  string
	Title string
	Run   func(Options) error
}

// Experiments lists every table/figure reproduction in paper order.
var Experiments = []Experiment{
	{"fig1", "Fig. 1: TLR representation of a covariance matrix (rank map)", Fig1},
	{"fig2", "Fig. 2: irregular point layout, fit/validation split", Fig2},
	{"fig3", "Fig. 3: one TLR MLE iteration vs full accuracy, shared memory", Fig3},
	{"fig4", "Fig. 4: one TLR MLE iteration on Cray XC40 (256/1024 nodes)", Fig4},
	{"fig5", "Fig. 5: TLR prediction time on Cray XC40 (256 nodes)", Fig5},
	{"fig6", "Fig. 6: Monte-Carlo parameter-estimation boxplots", Fig6},
	{"fig7", "Fig. 7: prediction MSE boxplots on synthetic data", Fig7},
	{"fig8", "Fig. 8: simulated real-dataset field maps with regions", Fig8},
	{"table1", "Table I: Matérn estimates, soil-moisture regions", Table1},
	{"table2", "Table II: Matérn estimates, wind-speed regions", Table2},
	{"fig9", "Fig. 9: prediction MSE boxplots on real-data regions", Fig9},
	{"ablation", "Ablations: ordering, compressor, tile size, scheduling", Ablations},
	{"extensions", "Extensions: prediction variance, concentrated MLE fit, refinement", Extensions},
}

// ByName returns the named experiment.
func ByName(name string) (Experiment, error) {
	for _, e := range Experiments {
		if e.Name == name {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("exprt: unknown experiment %q (have %v)", name, Names())
}

// Names lists the experiment names in paper order.
func Names() []string {
	names := make([]string, len(Experiments))
	for i, e := range Experiments {
		names[i] = e.Name
	}
	return names
}

// RunAll executes every experiment in order.
func RunAll(o Options) error {
	o = o.withDefaults()
	for _, e := range Experiments {
		fmt.Fprintf(o.Out, "\n========== %s — %s ==========\n", e.Name, e.Title)
		if err := e.Run(o); err != nil {
			return fmt.Errorf("%s: %w", e.Name, err)
		}
	}
	return nil
}
