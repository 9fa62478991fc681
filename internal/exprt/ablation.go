package exprt

import (
	"fmt"
	"math"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/cov"
	"repro/internal/geom"
	"repro/internal/hodlr"
	"repro/internal/la"
	"repro/internal/mpi"
	"repro/internal/rng"
	"repro/internal/runtime"
	"repro/internal/stats"
	"repro/internal/tile"
	"repro/internal/tlr"
)

// Ablations quantifies the design choices DESIGN.md calls out:
//
//  1. location ordering (none / Morton / Hilbert / KD-block) on uniform and
//     clustered points: ranks, storage, factor time, messages;
//  2. compression backend (the SVD reference against RSVD, the one sessions
//     run);
//  3. tile size on the distributed machine (the paper's nb=560 vs nb=1900
//     discussion, §VIII-C);
//  4. out-of-order task flow vs bulk-synchronous scheduling;
//  5. TLR vs HODLR compression format (the §II trade-off);
//  6. really-distributed message-passing Cholesky vs shared memory.
func Ablations(o Options) error {
	o = o.withDefaults()
	if err := ablationOrdering(o); err != nil {
		return err
	}
	if err := ablationCompressor(o); err != nil {
		return err
	}
	ablationTileSize(o)
	ablationScheduling(o)
	if err := ablationFormats(o); err != nil {
		return err
	}
	return ablationDistributed(o)
}

// ablationOrdering sweeps the four orderings over two geometries: a uniform
// perturbed grid, and Gaussian clusters drawn in interleaved order, where the
// raw order leaves near-field pairs in every tile. Per cell: the tile ranks,
// storage and factorization time of the shared-memory TLR matrix, then the
// same likelihood over four ranks — what the ordering costs in bytes sent,
// and that it does not move the answer.
func ablationOrdering(o Options) error {
	n, nb := 1024, 128
	if o.Scale == ScalePaper {
		n, nb = 2048, 128
	}
	th := maternRef()
	k := cov.NewKernel(th)
	geoms := []struct {
		name string
		pts  []geom.Point
	}{
		{"uniform", geom.GeneratePerturbedGrid(n, rng.New(o.Seed))},
		{"clustered", geom.GenerateClustered(n, 8, 0.02, rng.New(o.Seed+1))},
	}

	fmt.Fprintf(o.Out, "\n[1] location ordering (n=%d, nb=%d, acc=1e-7; clustered = 8 Gaussian blobs, σ=0.02; comm = bytes sent on a 2x2 grid)\n", n, nb)
	tb := stats.NewTable("geometry", "ordering", "max rank", "mean rank", "tlr bytes", "dense bytes", "chol time", "comm bytes", "loglik rel Δ vs none")
	for _, g := range geoms {
		z, err := cov.SampleField(k, g.pts, geom.Euclidean, rng.New(o.Seed+7).Split(2))
		if err != nil {
			return err
		}
		p, err := core.NewProblem(g.pts, z, geom.Euclidean)
		if err != nil {
			return err
		}
		var rawLik float64
		for _, name := range geom.OrderingNames() {
			ord, err := geom.NewOrdering(name, nb)
			if err != nil {
				return err
			}
			m := tlr.FromKernel(k, geom.Sorted(ord, g.pts), geom.Euclidean, n, nb, 1e-7, tlr.CompressRSVD, 1e-9, o.Workers)
			maxK, meanK := m.RankStats()
			t0 := time.Now()
			if err := tlr.Cholesky(m, o.Workers); err != nil {
				return err
			}
			chol := time.Since(t0).Seconds()

			s, err := core.NewSession(p, core.Config{Mode: core.TLR, TileSize: nb, Accuracy: 1e-7,
				Workers: o.Workers, Ordering: name, Ranks: 4})
			if err != nil {
				return err
			}
			lik, err := s.LogLikelihood(th)
			if err != nil {
				return err
			}
			var sent int64
			for _, st := range s.CommStats() {
				sent += st.BytesSent
			}
			if name == geom.OrderNone {
				rawLik = lik.Value
			}
			tb.AddRow(g.name, name, fmt.Sprintf("%d", maxK), fmt.Sprintf("%.1f", meanK),
				fmt.Sprintf("%d", m.Bytes()), fmt.Sprintf("%d", m.DenseBytes()),
				fmtSecs(chol, false), fmt.Sprintf("%d", sent),
				fmt.Sprintf("%.1e", math.Abs(lik.Value-rawLik)/math.Abs(rawLik)))
		}
	}
	fmt.Fprint(o.Out, tb.String())
	return nil
}

func ablationCompressor(o Options) error {
	nb := 96
	th := maternRef()
	k := cov.NewKernel(th)
	r := rng.New(o.Seed + 1)
	pts := geom.GeneratePerturbedGrid(nb*nb, r)
	pts = geom.Sorted(geom.Morton, pts)

	fmt.Fprintf(o.Out, "\n[2] compression backend (tile %dx%d pairs, acc=1e-7): tlr.CompressSVD is the accuracy reference, tlr.CompressRSVD what every session runs\n", nb, nb)
	tb := stats.NewTable("backend", "mean rank", "total time", "max rel err")
	for _, b := range []struct {
		name string
		comp tlr.Compressor
	}{{"svd", tlr.CompressSVD}, {"rsvd", tlr.CompressRSVD}} {
		var ranks []float64
		var worst float64
		t0 := time.Now()
		for trial := 0; trial < 6; trial++ {
			a := tileBetween(k, pts, nb, trial)
			c := b.comp(a, 1e-7, 0, 0)
			ranks = append(ranks, float64(c.Rank()))
			d := c.Dense()
			d.Sub(a)
			if rel := d.FrobNorm() / a.FrobNorm(); rel > worst {
				worst = rel
			}
		}
		el := time.Since(t0).Seconds()
		mean, _ := stats.MeanStd(ranks)
		tb.AddRow(b.name, fmt.Sprintf("%.1f", mean), fmtSecs(el, false), fmt.Sprintf("%.2e", worst))
	}
	fmt.Fprint(o.Out, tb.String())
	return nil
}

// tileBetween builds the covariance block between tile 0 and tile (trial+1)
// of the Morton-ordered point set.
func tileBetween(k *cov.Kernel, pts []geom.Point, nb, trial int) *la.Mat {
	j := trial + 1
	a := la.NewMat(nb, nb)
	k.Block(a, pts[:nb], pts[j*nb:(j+1)*nb], geom.Euclidean)
	return a
}

func ablationTileSize(o Options) {
	fmt.Fprintf(o.Out, "\n[3] tile size on simulated Cray XC40, 256 nodes, n=500K (paper §VIII-C: nb=560 dense / nb=1900 TLR)\n")
	m := cluster.NewMachine(cluster.ShaheenNode, 256)
	model := rankModel(1e-7)
	tb := stats.NewTable("nb", "full-tile", "tlr(1e-7)")
	for _, nb := range []int{280, 560, 1120, 1900, 3800} {
		den := cluster.AnalyticCholesky(m, cluster.Workload{N: 500_000, NB: nb, Variant: cluster.Dense})
		tl := cluster.AnalyticCholesky(m, cluster.Workload{N: 500_000, NB: nb, Variant: cluster.TLRVariant, Ranks: model})
		tb.AddRow(fmt.Sprintf("%d", nb), fmtSecs(den.Seconds, den.OOM), fmtSecs(tl.Seconds, tl.OOM))
	}
	fmt.Fprint(o.Out, tb.String())
}

func ablationScheduling(o Options) {
	n, nb := 4096, 256
	fmt.Fprintf(o.Out, "\n[4] scheduling: out-of-order task flow vs bulk-synchronous (dense Cholesky DAG, n=%d nb=%d)\n", n, nb)
	sym := tile.NewSym(n, nb)
	g, _ := tile.BuildCholeskyGraph(sym, false)
	cost := func(t *runtime.Task) float64 { return t.Flops }
	tb := stats.NewTable("workers", "async makespan", "barrier makespan", "barrier penalty")
	for _, w := range []int{4, 16, 64} {
		async, _ := g.Simulate(runtime.SimOptions{Workers: w, Cost: cost})
		bsp, _ := g.Simulate(runtime.SimOptions{Workers: w, Cost: cost, Barrier: true})
		tb.AddRow(fmt.Sprintf("%d", w), fmt.Sprintf("%.3g", async), fmt.Sprintf("%.3g", bsp),
			fmt.Sprintf("%.2fx", bsp/async))
	}
	fmt.Fprint(o.Out, tb.String())
	fmt.Fprintln(o.Out, "the asynchronous task flow's advantage grows with worker count — the StarPU rationale (§VI)")
}

func ablationFormats(o Options) error {
	n, leaf := 768, 64
	k := cov.NewKernel(maternRef())
	r := rng.New(o.Seed + 2)
	pts := geom.GeneratePerturbedGrid(n, r)
	pts = geom.Sorted(geom.Morton, pts)
	fmt.Fprintf(o.Out, "\n[5] compression format: flat TLR vs recursive HODLR (n=%d, §II trade-off; storage compressed by tlr.CompressSVD, the accuracy reference)\n", n)
	tb := stats.NewTable("accuracy", "dense bytes", "tlr bytes", "hodlr bytes", "tlr max rank", "hodlr max rank")
	for _, acc := range []float64{1e-3, 1e-6, 1e-9} {
		tl := tlr.FromKernel(k, pts, geom.Euclidean, n, leaf, acc, tlr.CompressSVD, 0, o.Workers)
		hd := hodlr.Build(k, pts, geom.Euclidean, leaf, acc, tlr.CompressSVD, 0)
		tlMax, _ := tl.RankStats()
		tb.AddRow(fmt.Sprintf("%.0e", acc),
			fmt.Sprintf("%d", int64(n)*int64(n)*8),
			fmt.Sprintf("%d", tl.Bytes()), fmt.Sprintf("%d", hd.Bytes()),
			fmt.Sprintf("%d", tlMax), fmt.Sprintf("%d", hd.MaxRank()))
	}
	fmt.Fprint(o.Out, tb.String())
	fmt.Fprintln(o.Out, "HODLR compresses the far field harder; TLR's flat layout is what distributes (the paper's §II argument)")

	// What each format costs end to end: one likelihood evaluation (assembly,
	// compression, factorization, solve) on the same problem and leaf size.
	if o.Scale == ScalePaper {
		n, leaf = 3600, 200
	}
	syn, err := core.GenerateSynthetic(n, 0, maternRef(), o.Seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(o.Out, "one core.LogLikelihood per format (n=%d, nb=leaf=%d, %d workers, rsvd)\n", n, leaf, o.Workers)
	tb = stats.NewTable("accuracy", "tlr time", "tlr MiB", "hodlr time", "hodlr MiB")
	for _, acc := range []float64{1e-5, 1e-7, 1e-9} {
		row := []string{fmt.Sprintf("%.0e", acc)}
		for _, mode := range []core.Mode{core.TLR, core.HODLR} {
			t0 := time.Now()
			lik, err := core.LogLikelihood(syn.Train, maternRef(), core.Config{
				Mode: mode, TileSize: leaf, Accuracy: acc, Workers: o.Workers})
			if err != nil {
				return err
			}
			row = append(row, fmtSecs(time.Since(t0).Seconds(), false), fmt.Sprintf("%.2f", float64(lik.Bytes)/(1<<20)))
		}
		tb.AddRow(row...)
	}
	fmt.Fprint(o.Out, tb.String())
	return nil
}

func ablationDistributed(o Options) error {
	n, nb := 240, 30
	k := cov.NewKernel(maternRef())
	r := rng.New(o.Seed + 3)
	pts := geom.GeneratePerturbedGrid(n, r)
	pts = geom.Sorted(geom.Morton, pts)
	fmt.Fprintf(o.Out, "\n[6] really-distributed (message passing, no shared matrix) TLR Cholesky at 1e-12 with tlr.CompressSVD, the accuracy reference, n=%d nb=%d\n", n, nb)

	ref := la.NewMat(n, n)
	k.Matrix(ref, pts, geom.Euclidean)
	cov.AddNugget(ref, 1e-10)
	if err := la.Potrf(ref); err != nil {
		return err
	}
	want := la.LogDetFromChol(ref)

	tb := stats.NewTable("grid", "ranks", "logdet", "|Δ logdet|", "wall")
	for _, grid := range []mpi.Grid{{P: 1, Q: 1}, {P: 2, Q: 2}, {P: 2, Q: 4}} {
		var got float64
		t0 := time.Now()
		errs := mpi.RunWorld(grid.P*grid.Q, func(c *mpi.Comm) error {
			m := mpi.NewDistTLR(grid, pts, geom.Euclidean, nb, 1e-12, tlr.CompressSVD)
			if err := m.GenCholesky(c, k, 1e-10); err != nil {
				return err
			}
			ld, err := m.LogDet(c)
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				got = ld
			}
			return nil
		})
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		tb.AddRow(fmt.Sprintf("%dx%d", grid.P, grid.Q), fmt.Sprintf("%d", grid.P*grid.Q),
			fmt.Sprintf("%.6f", got), fmt.Sprintf("%.2e", math.Abs(got-want)),
			fmtSecs(time.Since(t0).Seconds(), false))
	}
	fmt.Fprint(o.Out, tb.String())
	fmt.Fprintln(o.Out, "every grid reproduces the dense log-determinant: the transfers the comm model prices are the ones that execute")
	return nil
}
