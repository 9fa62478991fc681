// Command exageostat is the operational CLI of the framework, mirroring the
// original ExaGeoStat driver: generate synthetic spatial data, estimate the
// Matérn parameters by maximum likelihood under a chosen computation mode,
// and predict held-out values.
//
//	exageostat -n 1600 -mode tlr -acc 1e-7 -predict 100
//	exageostat -n 900 -mode full-block -theta 1,0.1,0.5
//	exageostat -dataset soil -points 256 -mode tlr -acc 1e-9
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	exago "repro"
)

func main() {
	var (
		n       = flag.Int("n", 1600, "number of synthetic locations")
		nPred   = flag.Int("predict", 100, "held-out locations to predict")
		modeStr = flag.String("mode", "tlr", "computation mode: full-block | full-tile | tlr | hodlr")
		acc     = flag.Float64("acc", 1e-7, "TLR accuracy threshold")
		nb      = flag.Int("nb", 0, "tile size (0 = default)")
		comp    = flag.String("compressor", "svd", "TLR compression backend: svd | rsvd")
		workers = flag.Int("workers", runtime.NumCPU(), "runtime workers")
		thetaS  = flag.String("theta", "1,0.1,0.5", "generating θ as variance,range,smoothness")
		seed    = flag.Uint64("seed", 42, "random seed")
		dataset = flag.String("dataset", "", "use a simulated real dataset instead: soil | wind")
		points  = flag.Int("points", 256, "points per region for -dataset")
		maxEval = flag.Int("maxevals", 150, "likelihood evaluation budget for the fit")

		dataPath  = flag.String("data", "", "fit a CSV dataset (x,y,z rows) instead of generating")
		metricStr = flag.String("metric", "euclidean", "distance metric for -data: euclidean | greatcircle | greatcircle-earth-100km | chordal")
		exportCSV = flag.String("export", "", "write the generated synthetic dataset to this CSV path")
		saveModel = flag.String("save", "", "write the fitted model JSON to this path")
		loadModel = flag.String("model", "", "skip fitting: load a model JSON and predict on -data")
	)
	flag.Parse()

	cfg, err := parseMode(*modeStr, *acc, *nb, *comp, *workers)
	if err != nil {
		fatal(err)
	}

	switch {
	case *loadModel != "":
		if *dataPath == "" {
			fatal(fmt.Errorf("-model requires -data"))
		}
		if err := runLoadedModel(*loadModel, *dataPath, *nPred, *seed, cfg); err != nil {
			fatal(err)
		}
	case *dataPath != "":
		if err := runCSV(*dataPath, *metricStr, *nPred, *seed, cfg, *maxEval, *saveModel); err != nil {
			fatal(err)
		}
	case *dataset != "":
		if err := runDataset(*dataset, *points, *seed, cfg, *maxEval); err != nil {
			fatal(err)
		}
	default:
		theta, err := parseTheta(*thetaS)
		if err != nil {
			fatal(err)
		}
		if err := runSynthetic(*n, *nPred, theta, *seed, cfg, *maxEval, *exportCSV, *saveModel); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "exageostat: %v\n", err)
	os.Exit(1)
}

func parseMode(mode string, acc float64, nb int, comp string, workers int) (exago.Config, error) {
	cfg := exago.Config{TileSize: nb, Accuracy: acc, CompressorName: comp, Workers: workers}
	m, err := exago.ModeByName(mode)
	if err != nil {
		return cfg, err
	}
	cfg.Mode = m
	return cfg, nil
}

func parseTheta(s string) (exago.Theta, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 3 {
		return exago.Theta{}, fmt.Errorf("theta must be variance,range,smoothness: %q", s)
	}
	var v [3]float64
	for i, p := range parts {
		x, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return exago.Theta{}, fmt.Errorf("theta component %d: %w", i, err)
		}
		v[i] = x
	}
	return exago.Theta{Variance: v[0], Range: v[1], Smoothness: v[2]}, nil
}

func runSynthetic(n, nPred int, theta exago.Theta, seed uint64, cfg exago.Config, maxEval int, exportCSV, saveModel string) error {
	fmt.Printf("generating %d locations + %d held out, θ = (%g, %g, %g), seed %d\n",
		n, nPred, theta.Variance, theta.Range, theta.Smoothness, seed)
	syn, err := exago.GenerateSynthetic(n+nPred, nPred, theta, seed)
	if err != nil {
		return err
	}
	if exportCSV != "" {
		if err := exago.WriteCSVFile(exportCSV, exago.Records{Points: syn.Train.Points, Z: syn.Train.Z}); err != nil {
			return err
		}
		fmt.Printf("wrote fit dataset to %s\n", exportCSV)
	}

	t0 := time.Now()
	fit, err := exago.Fit(syn.Train, cfg, exago.FitOptions{MaxEvals: maxEval})
	if err != nil {
		return err
	}
	if saveModel != "" {
		if err := saveFit(saveModel, syn.Train, fit, cfg); err != nil {
			return err
		}
		fmt.Printf("wrote model to %s\n", saveModel)
	}
	fmt.Printf("mode %v: θ̂ = (%.4f, %.4f, %.4f)  loglik %.3f  (%d evals, %s)\n",
		cfg.Mode, fit.Theta.Variance, fit.Theta.Range, fit.Theta.Smoothness,
		fit.LogL, fit.Evals, time.Since(t0).Round(time.Millisecond))

	lik, err := exago.LogLikelihood(syn.Train, fit.Theta, cfg)
	if err != nil {
		return err
	}
	fmt.Printf("covariance storage: %.1f MB", float64(lik.Bytes)/1e6)
	if cfg.Mode == exago.TLR {
		fmt.Printf("  (max rank %d, mean rank %.1f at accuracy %.0e)", lik.MaxRank, lik.MeanRank, cfg.Accuracy)
	}
	fmt.Println()

	if nPred > 0 {
		pred, err := exago.Predict(syn.Train, syn.TestPoints, fit.Theta, cfg)
		if err != nil {
			return err
		}
		fmt.Printf("prediction MSE over %d held-out values: %.5f (field variance %.3f)\n",
			nPred, exago.MSE(pred, syn.TestZ), theta.Variance)
	}
	return nil
}

func runDataset(name string, points int, seed uint64, cfg exago.Config, maxEval int) error {
	var (
		ds  *exago.Dataset
		err error
	)
	switch name {
	case "soil":
		ds, err = exago.SoilMoisture(points, seed)
	case "wind":
		ds, err = exago.WindSpeed(points, seed)
	default:
		return fmt.Errorf("unknown dataset %q (want soil or wind)", name)
	}
	if err != nil {
		return err
	}
	fmt.Printf("dataset %s: %d regions x %d points\n", ds.Name, len(ds.Regions), points)
	for _, reg := range ds.Regions {
		prob, err := exago.NewProblem(reg.Points, reg.Z, ds.Metric)
		if err != nil {
			return err
		}
		fit, err := exago.Fit(prob, cfg, exago.FitOptions{
			Start:    exago.Theta{Range: reg.Truth.Range, Smoothness: 0.8},
			Upper:    exago.Theta{Range: 50 * reg.Truth.Range, Smoothness: 3},
			MaxEvals: maxEval,
		})
		if err != nil {
			return err
		}
		fmt.Printf("  %s: θ̂ = (%.3f, %.3f, %.3f)   truth (%.3f, %.3f, %.3f)\n",
			reg.Name, fit.Theta.Variance, fit.Theta.Range, fit.Theta.Smoothness,
			reg.Truth.Variance, reg.Truth.Range, reg.Truth.Smoothness)
	}
	return nil
}

// saveFit writes a model document for a completed fit.
func saveFit(path string, p *exago.Problem, fit exago.FitResult, cfg exago.Config) error {
	m := exago.Model{
		Kind:          "matern",
		Theta:         fit.Theta,
		Metric:        exago.MetricName(p.Metric),
		LogLikelihood: fit.LogL,
		Mode:          cfg.Mode.String(),
		N:             p.N(),
	}
	if cfg.Mode == exago.TLR {
		m.Accuracy = cfg.Accuracy
	}
	return exago.SaveModelFile(path, m)
}

// runCSV fits a dataset loaded from disk, optionally holding out nPred
// random points for validation and saving the fitted model.
func runCSV(path, metricName string, nPred int, seed uint64, cfg exago.Config, maxEval int, saveModel string) error {
	rec, err := exago.ReadCSVFile(path)
	if err != nil {
		return err
	}
	metric, err := exago.MetricByName(metricName)
	if err != nil {
		return err
	}
	fmt.Printf("loaded %d locations from %s (metric %s)\n", len(rec.Points), path, metricName)
	trainPts, trainZ, testPts, testZ := holdOut(rec, nPred, seed)
	prob, err := exago.NewProblem(trainPts, trainZ, metric)
	if err != nil {
		return err
	}
	t0 := time.Now()
	fit, err := exago.Fit(prob, cfg, exago.FitOptions{MaxEvals: maxEval})
	if err != nil {
		return err
	}
	fmt.Printf("mode %v: θ̂ = (%.4f, %.4f, %.4f)  loglik %.3f  (%d evals, %s)\n",
		cfg.Mode, fit.Theta.Variance, fit.Theta.Range, fit.Theta.Smoothness,
		fit.LogL, fit.Evals, time.Since(t0).Round(time.Millisecond))
	if saveModel != "" {
		if err := saveFit(saveModel, prob, fit, cfg); err != nil {
			return err
		}
		fmt.Printf("wrote model to %s\n", saveModel)
	}
	if len(testPts) > 0 {
		pred, err := exago.Predict(prob, testPts, fit.Theta, cfg)
		if err != nil {
			return err
		}
		fmt.Printf("hold-out prediction MSE over %d values: %.5f\n", len(testPts), exago.MSE(pred, testZ))
	}
	return nil
}

// runLoadedModel predicts on a dataset with a previously fitted model.
func runLoadedModel(modelPath, dataPath string, nPred int, seed uint64, cfg exago.Config) error {
	m, err := exago.LoadModelFile(modelPath)
	if err != nil {
		return err
	}
	rec, err := exago.ReadCSVFile(dataPath)
	if err != nil {
		return err
	}
	metric, err := exago.MetricByName(m.Metric)
	if err != nil {
		return err
	}
	if nPred <= 0 || nPred >= len(rec.Points) {
		return fmt.Errorf("predict count %d must be in (0, %d)", nPred, len(rec.Points))
	}
	fmt.Printf("model %s: θ = (%.4f, %.4f, %.4f) fitted in mode %s\n",
		modelPath, m.Theta.Variance, m.Theta.Range, m.Theta.Smoothness, m.Mode)
	trainPts, trainZ, testPts, testZ := holdOut(rec, nPred, seed)
	prob, err := exago.NewProblem(trainPts, trainZ, metric)
	if err != nil {
		return err
	}
	pr, err := exago.PredictWithVariance(prob, testPts, m.Theta, cfg)
	if err != nil {
		return err
	}
	coverage, err := exago.CoverageCheck(pr, testZ)
	if err != nil {
		return err
	}
	fmt.Printf("predicted %d held-out values: MSE %.5f, 95%% interval coverage %.0f%%\n",
		len(testPts), exago.MSE(pr.Mean, testZ), 100*coverage)
	return nil
}

// holdOut splits records into train and a random test subset of size k.
func holdOut(rec exago.Records, k int, seed uint64) (trainPts []exago.Point, trainZ []float64, testPts []exago.Point, testZ []float64) {
	if k <= 0 || k >= len(rec.Points) {
		return rec.Points, rec.Z, nil, nil
	}
	lcg := seed*6364136223846793005 + 1442695040888963407
	isTest := make([]bool, len(rec.Points))
	chosen := 0
	for chosen < k {
		lcg = lcg*6364136223846793005 + 1442695040888963407
		idx := int((lcg >> 33) % uint64(len(rec.Points)))
		if !isTest[idx] {
			isTest[idx] = true
			chosen++
		}
	}
	for i := range rec.Points {
		if isTest[i] {
			testPts = append(testPts, rec.Points[i])
			testZ = append(testZ, rec.Z[i])
		} else {
			trainPts = append(trainPts, rec.Points[i])
			trainZ = append(trainZ, rec.Z[i])
		}
	}
	return
}
