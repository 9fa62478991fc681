// Benchmarks: one testing.B benchmark per paper table/figure plus the
// ablations called out in DESIGN.md. Each benchmark exercises the unit of
// work its figure measures, at benchmark-friendly sizes; `paperbench`
// produces the full rows/series.
package exago_test

import (
	"sync"
	"testing"

	exago "repro"
	"repro/internal/exprt"
	"repro/internal/geom"
	"repro/internal/la"
	"repro/internal/rng"
	"repro/internal/runtime"
	"repro/internal/tile"
	"repro/internal/tlr"

	"repro/internal/cov"
)

func benchTheta() exago.Theta { return exago.Theta{Variance: 1, Range: 0.1, Smoothness: 0.5} }

var (
	rankOnce  sync.Once
	rankModel *exago.RankModel
)

func benchRanks() *exago.RankModel {
	rankOnce.Do(func() {
		rankModel = exago.CalibrateRankModel(1e-7, benchTheta(), 1024, 128)
	})
	return rankModel
}

var benchProblemCache = map[int]*exago.Problem{}

func benchProblem(b *testing.B, n int) *exago.Problem {
	b.Helper()
	if p, ok := benchProblemCache[n]; ok {
		return p
	}
	syn, err := exago.GenerateSynthetic(n, 0, benchTheta(), 11)
	if err != nil {
		b.Fatal(err)
	}
	benchProblemCache[n] = syn.Train
	return syn.Train
}

// --- Fig. 2: workload generation ---------------------------------------

func BenchmarkFig2Workload(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exago.GenerateSynthetic(400, 38, benchTheta(), uint64(i)+1); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fig. 3: one MLE iteration per computation technique ----------------

func benchIteration(b *testing.B, cfg exago.Config) {
	p := benchProblem(b, 900)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exago.LogLikelihood(p, benchTheta(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3IterationFullBlock(b *testing.B) {
	benchIteration(b, exago.Config{Mode: exago.FullBlock})
}

func BenchmarkFig3IterationFullTile(b *testing.B) {
	benchIteration(b, exago.Config{Mode: exago.FullTile, TileSize: 128, Workers: 4})
}

func BenchmarkFig3IterationTLR1e5(b *testing.B) {
	benchIteration(b, exago.Config{Mode: exago.TLR, TileSize: 128, Accuracy: 1e-5, Workers: 4})
}

func BenchmarkFig3IterationTLR1e9(b *testing.B) {
	benchIteration(b, exago.Config{Mode: exago.TLR, TileSize: 128, Accuracy: 1e-9, Workers: 4})
}

func BenchmarkFig3SimulatedHaswellSweep(b *testing.B) {
	ranks := benchRanks()
	m := exago.NewMachine(exago.Haswell, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, n := range []int{55225, 79524, 112225} {
			exago.AnalyticCholesky(m, exago.Workload{N: n, NB: 560, Variant: exago.DenseVariant})
			exago.AnalyticCholesky(m, exago.Workload{N: n, NB: 1900, Variant: exago.TLRWorkload, Ranks: ranks})
		}
	}
}

// --- Fig. 4: distributed-memory simulation ------------------------------

func BenchmarkFig4Simulated256Nodes(b *testing.B) {
	ranks := benchRanks()
	m := exago.NewMachine(exago.ShaheenNode, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exago.AnalyticCholesky(m, exago.Workload{N: 1_000_000, NB: 560, Variant: exago.DenseVariant})
		exago.AnalyticCholesky(m, exago.Workload{N: 1_000_000, NB: 1900, Variant: exago.TLRWorkload, Ranks: ranks})
	}
}

func BenchmarkFig4Simulated1024Nodes(b *testing.B) {
	ranks := benchRanks()
	m := exago.NewMachine(exago.ShaheenNode, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exago.AnalyticCholesky(m, exago.Workload{N: 2_000_000, NB: 1900, Variant: exago.TLRWorkload, Ranks: ranks})
	}
}

// --- Fig. 5: prediction --------------------------------------------------

func BenchmarkFig5PredictReal(b *testing.B) {
	p := benchProblem(b, 400)
	newPts := geom.GeneratePerturbedGrid(25, rng.New(5))
	cfg := exago.Config{Mode: exago.TLR, TileSize: 64, Accuracy: 1e-7}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exago.Predict(p, newPts, benchTheta(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5PredictSimulated(b *testing.B) {
	ranks := benchRanks()
	m := exago.NewMachine(exago.ShaheenNode, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exago.AnalyticPrediction(m, exago.Workload{N: 500_000, NB: 1900, Variant: exago.TLRWorkload, Ranks: ranks}, 100)
	}
}

// --- Fig. 6/7: Monte-Carlo fit and prediction MSE -----------------------

func BenchmarkFig6MonteCarloFitTLR(b *testing.B) {
	p := benchProblem(b, 225)
	cfg := exago.Config{Mode: exago.TLR, TileSize: 64, Accuracy: 1e-9}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exago.Fit(p, cfg, exago.FitOptions{Start: benchTheta(), MaxEvals: 40}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7PredictionMSE(b *testing.B) {
	syn, err := exago.GenerateSynthetic(250, 25, benchTheta(), 13)
	if err != nil {
		b.Fatal(err)
	}
	cfg := exago.Config{Mode: exago.TLR, TileSize: 64, Accuracy: 1e-7}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pred, err := exago.Predict(syn.Train, syn.TestPoints, benchTheta(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		_ = exago.MSE(pred, syn.TestZ)
	}
}

// --- Tables I/II and Fig. 9: real-dataset regional fits ------------------

func BenchmarkTable1SoilRegionFit(b *testing.B) {
	ds, err := exago.SoilMoisture(144, 2)
	if err != nil {
		b.Fatal(err)
	}
	reg := ds.Regions[0]
	prob, err := exago.NewProblem(reg.Points, reg.Z, ds.Metric)
	if err != nil {
		b.Fatal(err)
	}
	cfg := exago.Config{Mode: exago.TLR, TileSize: 48, Accuracy: 1e-7}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := exago.Fit(prob, cfg, exago.FitOptions{
			Start:    exago.Theta{Variance: reg.Truth.Variance, Range: reg.Truth.Range, Smoothness: 0.8},
			MaxEvals: 40,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2WindRegionFit(b *testing.B) {
	ds, err := exago.WindSpeed(144, 3)
	if err != nil {
		b.Fatal(err)
	}
	reg := ds.Regions[0]
	prob, err := exago.NewProblem(reg.Points, reg.Z, ds.Metric)
	if err != nil {
		b.Fatal(err)
	}
	cfg := exago.Config{Mode: exago.TLR, TileSize: 48, Accuracy: 1e-7}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := exago.Fit(prob, cfg, exago.FitOptions{
			Start:    exago.Theta{Variance: reg.Truth.Variance, Range: reg.Truth.Range, Smoothness: 1.0},
			MaxEvals: 40,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9RealDataPrediction(b *testing.B) {
	ds, err := exago.SoilMoisture(169, 4)
	if err != nil {
		b.Fatal(err)
	}
	reg := ds.Regions[0]
	prob, err := exago.NewProblem(reg.Points[:144], reg.Z[:144], ds.Metric)
	if err != nil {
		b.Fatal(err)
	}
	cfg := exago.Config{Mode: exago.TLR, TileSize: 48, Accuracy: 1e-9}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pred, err := exago.Predict(prob, reg.Points[144:], reg.Truth, cfg)
		if err != nil {
			b.Fatal(err)
		}
		_ = exago.MSE(pred, reg.Z[144:])
	}
}

// --- Ablations ------------------------------------------------------------

func BenchmarkAblationOrdering(b *testing.B) {
	k := cov.NewKernel(benchTheta())
	pts := geom.GeneratePerturbedGrid(512, rng.New(6))
	morton := geom.ApplyPerm(pts, geom.MortonOrder(pts))
	b.Run("raw", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m := tlr.FromKernel(k, pts, geom.Euclidean, 512, 64, 1e-7, tlr.SVDCompressor{}, 1e-9, 1)
			_, _ = m.RankStats()
		}
	})
	b.Run("morton", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m := tlr.FromKernel(k, morton, geom.Euclidean, 512, 64, 1e-7, tlr.SVDCompressor{}, 1e-9, 1)
			_, _ = m.RankStats()
		}
	})
}

func BenchmarkAblationCompressor(b *testing.B) {
	k := cov.NewKernel(benchTheta())
	pts := geom.GeneratePerturbedGrid(4096, rng.New(7))
	pts = geom.ApplyPerm(pts, geom.MortonOrder(pts))
	for _, name := range []string{"svd", "rsvd", "aca"} {
		comp, err := tlr.CompressorByName(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			buf := la.NewMat(128, 128)
			for i := 0; i < b.N; i++ {
				k.Block(buf, pts[:128], pts[128*2:128*3], geom.Euclidean)
				_ = comp.Compress(buf, 1e-7)
			}
		})
	}
}

func BenchmarkAblationTileSize(b *testing.B) {
	ranks := benchRanks()
	m := exago.NewMachine(exago.ShaheenNode, 256)
	for _, nb := range []int{560, 1900, 3800} {
		nb := nb
		b.Run(benchName("nb", nb), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				exago.AnalyticCholesky(m, exago.Workload{N: 500_000, NB: nb, Variant: exago.TLRWorkload, Ranks: ranks})
			}
		})
	}
}

func BenchmarkAblationScheduling(b *testing.B) {
	sym := tile.NewSym(4096, 256)
	g, _ := tile.BuildCholeskyGraph(sym, false)
	b.Run("async", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := g.Simulate(runtime.SimOptions{Workers: 16}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("barrier", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := g.Simulate(runtime.SimOptions{Workers: 16, Barrier: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Compute kernels (packed BLAS3, parallel assembly) --------------------

// BenchmarkGemm compares the packed register-tiled GEMM against the retained
// naive reference.
func BenchmarkGemm(b *testing.B) {
	for _, n := range []int{128, 256, 512} {
		a, bm, c := la.NewMat(n, n), la.NewMat(n, n), la.NewMat(n, n)
		r := rng.New(uint64(n))
		r.NormSlice(a.Data)
		r.NormSlice(bm.Data)
		flops := 2 * int64(n) * int64(n) * int64(n)
		b.Run(benchName("naive/n", n), func(b *testing.B) {
			b.SetBytes(flops) // flops reported as MB/s ≙ MFLOP/s
			for i := 0; i < b.N; i++ {
				la.RefGemm(1, a, la.NoTrans, bm, la.NoTrans, 0, c)
			}
		})
		b.Run(benchName("packed/n", n), func(b *testing.B) {
			b.SetBytes(flops)
			for i := 0; i < b.N; i++ {
				la.Gemm(1, a, la.NoTrans, bm, la.NoTrans, 0, c)
			}
		})
	}
}

// BenchmarkCovAssembly times covariance-matrix generation, sequential vs the
// row-band parallel path.
func BenchmarkCovAssembly(b *testing.B) {
	k := cov.NewKernel(benchTheta())
	const n = 1024
	pts := geom.GeneratePerturbedGrid(n, rng.New(21))
	sigma := la.NewMat(len(pts), len(pts))
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			k.Matrix(sigma, pts, geom.Euclidean)
		}
	})
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			k.MatrixParallel(sigma, pts, geom.Euclidean, 4)
		}
	})
}

// BenchmarkCholeskyModes times one generation+factorization per computation
// mode at a fixed size, including the combined dcmg+POTRF task graph.
func BenchmarkCholeskyModes(b *testing.B) {
	k := cov.NewKernel(benchTheta())
	const n, nb = 1024, 128
	pts := geom.GeneratePerturbedGrid(n, rng.New(23))
	b.Run("full-block", func(b *testing.B) {
		sigma := la.NewMat(len(pts), len(pts))
		for i := 0; i < b.N; i++ {
			k.MatrixParallel(sigma, pts, geom.Euclidean, 4)
			cov.AddNugget(sigma, 1e-9)
			if err := la.Potrf(sigma); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, w := range []int{1, 4} {
		w := w
		b.Run(benchName("full-tile/workers", w), func(b *testing.B) {
			m := tile.NewSym(len(pts), nb)
			spec := &tile.GenSpec{K: k, Pts: pts, Metric: geom.Euclidean, Nugget: 1e-9}
			g, _ := tile.BuildGenCholeskyGraph(m, spec, true)
			for i := 0; i < b.N; i++ {
				if err := g.Execute(runtime.ExecOptions{Workers: w}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Harness smoke benchmark ----------------------------------------------

func BenchmarkHarnessFig2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := runHarness("fig2"); err != nil {
			b.Fatal(err)
		}
	}
}

func runHarness(name string) error {
	e, err := exprt.ByName(name)
	if err != nil {
		return err
	}
	return e.Run(exprt.Options{})
}

func benchName(prefix string, v int) string {
	return prefix + "=" + itoa(v)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [12]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

func BenchmarkAblationProfiledFit(b *testing.B) {
	p := benchProblem(b, 225)
	cfg := exago.Config{Mode: exago.FullBlock}
	b.Run("full-3d", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := exago.Fit(p, cfg, exago.FitOptions{Start: benchTheta(), MaxEvals: 60}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("profiled-2d", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := exago.Fit(p, cfg, exago.FitOptions{Start: benchTheta(), MaxEvals: 60, Profiled: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkExtensionPredictWithVariance(b *testing.B) {
	syn, err := exago.GenerateSynthetic(275, 25, benchTheta(), 17)
	if err != nil {
		b.Fatal(err)
	}
	cfg := exago.Config{Mode: exago.TLR, TileSize: 64, Accuracy: 1e-8}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exago.PredictWithVariance(syn.Train, syn.TestPoints, benchTheta(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtensionRefinedSolve(b *testing.B) {
	p := benchProblem(b, 225)
	rhs := make([]float64, p.N())
	rng.New(19).NormSlice(rhs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := exago.SolveRefined(p, benchTheta(), exago.Config{TileSize: 64, Accuracy: 1e-3}, rhs, exago.RefineOptions{Tol: 1e-10}); err != nil {
			b.Fatal(err)
		}
	}
}
