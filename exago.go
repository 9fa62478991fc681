// Package exago is the public API of the TLR ExaGeoStat reproduction: a Go
// framework for Gaussian maximum likelihood estimation and prediction on
// large spatial datasets, with exact dense computation (full-block and
// full-tile modes) and Tile Low-Rank (TLR) approximation at a user-selected
// accuracy.
//
// The minimal workflow is:
//
//	syn, _ := exago.GenerateSynthetic(1600, 100, exago.Theta{Variance: 1, Range: 0.1, Smoothness: 0.5}, 1)
//	fit, _ := exago.Fit(syn.Train, exago.Config{Mode: exago.TLR, Accuracy: 1e-7}, exago.FitOptions{})
//	pred, _ := exago.Predict(syn.Train, syn.TestPoints, fit.Theta, exago.Config{Mode: exago.TLR})
//	fmt.Println(exago.MSE(pred, syn.TestZ))
//
// The implementation packages live under internal/: dense linear algebra
// (la), Matérn covariance with general-order Bessel functions (cov, bessel),
// the task runtime (runtime), tile and TLR algorithms (tile, tlr), the
// derivative-free optimizer (optimize), spatial geometry (geom), the machine
// model for the paper's performance studies (cluster), simulated climate
// datasets (datasets), and the experiment harness (exprt).
package exago

import (
	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/cov"
	"repro/internal/dataio"
	"repro/internal/datasets"
	"repro/internal/geom"
	"repro/internal/tlr"
)

// Theta is the Matérn parameter vector (variance θ₁, spatial range θ₂,
// smoothness θ₃).
type Theta = cov.Params

// Point is a spatial location (planar X/Y, or lon/lat degrees on a sphere).
type Point = geom.Point

// Metric selects the distance function.
type Metric = geom.Metric

// Distance metrics.
const (
	// Euclidean is the planar distance used by the synthetic studies.
	Euclidean = geom.Euclidean
	// GreatCircle is the haversine distance on a unit sphere (degrees).
	GreatCircle = geom.GreatCircle
	// GreatCircleEarth100km is the haversine distance on Earth in 100-km
	// units, the working unit of the wind-speed dataset.
	GreatCircleEarth100km = geom.GreatCircleEarth100km
)

// Mode selects the computation technique for likelihoods and predictions.
type Mode = core.Mode

// Computation modes.
const (
	// FullBlock evaluates on one dense matrix with a blocked Cholesky (the
	// LAPACK-style baseline).
	FullBlock = core.FullBlock
	// FullTile uses tile algorithms over the task runtime (the Chameleon
	// path) at machine precision.
	FullTile = core.FullTile
	// TLR compresses off-diagonal tiles to Config.Accuracy (the HiCMA path).
	TLR = core.TLR
	// HODLR factors a hierarchically off-diagonal low-rank matrix with a
	// recursive Cholesky — the tree-structured alternative to TLR's flat
	// tiling (Config.TileSize is the leaf size, Config.Accuracy the per-block
	// tolerance).
	HODLR = core.HODLR
)

// ModeByName resolves a mode from its name or alias ("full-block", "dense",
// "tlr", "hodlr", ...), case-insensitively. ModeNames lists the canonical
// names of the modes.
func ModeByName(name string) (Mode, error) { return core.ModeByName(name) }
func ModeNames() []string                  { return core.ModeNames() }

// Config tunes a computation mode; see core.Config for field semantics.
// Setting Config.Ranks > 1 (Mode must be TLR) selects distributed-memory
// execution: the covariance matrix is sharded 2D block-cyclically over the
// most square process grid and factored with the distributed TLR Cholesky. All entry
// points validate the Config and return an error for invalid settings.
type Config = core.Config

// DefaultConfig returns the library defaults spelled out in one place; the
// zero Config behaves identically.
func DefaultConfig() Config { return core.DefaultConfig() }

// Problem is a spatial dataset prepared for estimation.
type Problem = core.Problem

// Session owns the cached evaluator state (assembly buffers, task graphs,
// TLR shells, and — for distributed configs — the rank World and matrix
// shards) for repeated operations on one Problem. The free functions
// (LogLikelihood, Fit, Predict, ...) are convenience wrappers that build a
// throwaway Session per call; hold a Session when making many calls so the
// reuse is part of the API contract.
//
// A Session is safe for concurrent use. Predict and PredictWithVariance at
// the (θ, nugget) whose solve state the session has cached — the last one it
// predicted at — run concurrently on the read-only factor; LogLikelihood,
// ProfiledLogLikelihood, Fit, a predict at any other θ and every distributed
// solve run one at a time, with nothing else in the session, and each of
// them retires the cached factor (the next variance predict factors again;
// the cached mean weights stay).
type Session = core.Session

// NewSession validates cfg and builds a reusable Session for p.
func NewSession(p *Problem, cfg Config) (*Session, error) { return core.NewSession(p, cfg) }

// FitOptions, FitResult and LikResult re-export the estimation types.
type (
	FitOptions = core.FitOptions
	FitResult  = core.FitResult
	LikResult  = core.LikResult
)

// FaultPlan describes a deterministic, seeded set of faults to inject into a
// Session via Config.Chaos: task panics and stragglers, which strike a task of
// the generate+factor DAG on the worker pool or on ranks alike, forced
// compression-tolerance misses (degraded to exact dense tiles — the only way a
// tile of the product ends up dense), and a rank kill placed by KillAtTask. A
// task panic or a rank kill fails the evaluation it lands in in bounded time;
// with Config.MaxRetries > 0 that evaluation is re-run from generation — after
// a rank dies, on a fresh World one rank smaller — and ends bitwise equal to
// an unfaulted one.
// See Session.ChaosStats for what actually fired.
type FaultPlan = chaos.FaultPlan

// ChaosStats counts the faults an injector delivered.
type ChaosStats = chaos.Stats

// Synthetic is a generated dataset with held-out validation points.
type Synthetic = core.Synthetic

// NewProblem bundles locations and measurements into a Problem, reordering
// along the Morton curve (effective compression needs some
// locality-preserving order; a TLR session reorders its own copy into KD
// blocks at its TileSize unless Config.Ordering says otherwise). The applied
// permutation is kept on Problem.Perm so results map back to caller order.
func NewProblem(pts []Point, z []float64, metric Metric) (*Problem, error) {
	return core.NewProblem(pts, z, metric)
}

// Ordering is a spatial ordering scheme: a deterministic permutation of the
// locations that controls off-diagonal covariance tile ranks — and with them
// TLR compression flops, memory, and distributed wire bytes. Select one per
// dataset with NewProblemOrdered or per session with Config.Ordering
// ("none", "morton", "hilbert", "kdblock").
type Ordering = geom.Ordering

// The built-in orderings.
var (
	// OrderingNone keeps caller order (the control arm of ordering sweeps).
	OrderingNone = geom.None
	// OrderingMorton sorts along the Z-order curve (32 bits/axis) — what
	// NewProblem applies.
	OrderingMorton = geom.Morton
	// OrderingHilbert sorts along the Hilbert curve: consecutive cells are
	// always edge-adjacent, typically the lowest tile ranks on clustered
	// data.
	OrderingHilbert = geom.Hilbert
)

// KDBlockOrdering returns the KD-tree recursive-bisection ordering with
// tile-aligned blocks of tileSize points (<= 0 means the default 128).
func KDBlockOrdering(tileSize int) Ordering { return geom.KDBlocks(tileSize) }

// OrderingByName resolves an ordering scheme by its Config.Ordering name.
func OrderingByName(name string, tileSize int) (Ordering, error) {
	return geom.NewOrdering(name, tileSize)
}

// NewProblemOrdered bundles a dataset under an explicit spatial ordering.
func NewProblemOrdered(pts []Point, z []float64, metric Metric, ord Ordering) (*Problem, error) {
	return core.NewProblemOrdered(pts, z, metric, ord)
}

// LogLikelihood evaluates the Gaussian log-likelihood ℓ(θ) (paper eq. 1).
// Convenience wrapper over Session.LogLikelihood; evaluating many θ on one
// problem is cheaper through a shared Session.
func LogLikelihood(p *Problem, theta Theta, cfg Config) (LikResult, error) {
	return core.LogLikelihood(p, theta, cfg)
}

// Fit estimates θ̂ by maximizing the log-likelihood with a derivative-free
// bound-constrained search. Convenience wrapper over Session.Fit.
func Fit(p *Problem, cfg Config, opts FitOptions) (FitResult, error) {
	return core.Fit(p, cfg, opts)
}

// Predict imputes measurements at new locations (paper eq. 4). Convenience
// wrapper over Session.Predict.
func Predict(p *Problem, newPts []Point, theta Theta, cfg Config) ([]float64, error) {
	return core.Predict(p, newPts, theta, cfg)
}

// MSE is the mean squared prediction error (paper eq. 7).
func MSE(pred, truth []float64) float64 { return core.MSE(pred, truth) }

// Prediction carries kriging means with conditional variances (paper eq. 3).
type Prediction = core.Prediction

// PredictWithVariance computes conditional means and variances at new
// locations, enabling 95% prediction intervals (Prediction.CI95).
func PredictWithVariance(p *Problem, newPts []Point, theta Theta, cfg Config) (Prediction, error) {
	return core.PredictWithVariance(p, newPts, theta, cfg)
}

// CoverageCheck returns the empirical coverage of the 95% prediction
// intervals against held-out truths.
func CoverageCheck(pr Prediction, truth []float64) (float64, error) {
	return core.CoverageCheck(pr, truth)
}

// RefineOptions and RefineResult re-export the iterative-refinement types.
type (
	RefineOptions = core.RefineOptions
	RefineResult  = tlr.RefineResult
)

// SolveRefined solves Σ(θ)·x = b to near machine precision using a loose TLR
// factorization as a PCG preconditioner with matrix-free exact operator
// applications — recovering full accuracy from cheap compression.
func SolveRefined(p *Problem, theta Theta, cfg Config, b []float64, opts RefineOptions) ([]float64, RefineResult, error) {
	return core.SolveRefined(p, theta, cfg, b, opts)
}

// Records and Model re-export the persistence layer.
type (
	Records = dataio.Records
	Model   = dataio.Model
)

// ReadCSVFile loads an x,y,z dataset; WriteCSVFile stores one.
func ReadCSVFile(path string) (Records, error)  { return dataio.ReadCSVFile(path) }
func WriteCSVFile(path string, r Records) error { return dataio.WriteCSVFile(path, r) }

// SaveModelFile and LoadModelFile persist fitted models as JSON.
func SaveModelFile(path string, m Model) error { return dataio.SaveModelFile(path, m) }
func LoadModelFile(path string) (Model, error) { return dataio.LoadModelFile(path) }
func MetricName(m Metric) string               { return dataio.MetricName(m) }
func MetricByName(name string) (Metric, error) { return dataio.MetricByName(name) }

// GenerateSynthetic samples a Gaussian random field at n perturbed-grid
// locations, holding out nTest for validation (paper §VII).
func GenerateSynthetic(n, nTest int, theta Theta, seed uint64) (*Synthetic, error) {
	return core.GenerateSynthetic(n, nTest, theta, seed)
}

// GenerateSyntheticReplicates draws several measurement vectors over one
// location set (the Monte-Carlo design of §VIII-D1).
func GenerateSyntheticReplicates(n, nrep int, theta Theta, seed uint64) ([]*Problem, error) {
	return core.GenerateSyntheticReplicates(n, nrep, theta, seed)
}

// Dataset and Region re-export the simulated climate datasets.
type (
	Dataset = datasets.Dataset
	Region  = datasets.Region
)

// SoilMoisture simulates the Mississippi-basin soil-moisture dataset
// (8 regions, Table I truths).
func SoilMoisture(pointsPerRegion int, seed uint64) (*Dataset, error) {
	return datasets.SoilMoisture(pointsPerRegion, seed)
}

// WindSpeed simulates the Middle-East wind-speed dataset (4 regions,
// Table II truths, great-circle distances).
func WindSpeed(pointsPerRegion int, seed uint64) (*Dataset, error) {
	return datasets.WindSpeed(pointsPerRegion, seed)
}

// Machine, Profile, Workload and SimResult re-export the performance
// model used for the paper-scale studies.
type (
	Machine   = cluster.Machine
	Profile   = cluster.Profile
	Workload  = cluster.Workload
	SimResult = cluster.Result
	RankModel = cluster.RankModel
)

// Machine profiles of the paper's testbeds.
var (
	Haswell     = cluster.Haswell
	Broadwell   = cluster.Broadwell
	KNL         = cluster.KNL
	Skylake     = cluster.Skylake
	ShaheenNode = cluster.ShaheenNode
)

// Simulated workload variants.
const (
	DenseVariant = cluster.Dense
	TLRWorkload  = cluster.TLRVariant
)

// NewMachine builds a simulated machine with a near-square process grid.
func NewMachine(p Profile, nodes int) Machine { return cluster.NewMachine(p, nodes) }

// CalibrateRankModel measures TLR tile ranks on real compressed Matérn tiles
// for use in simulated workloads.
func CalibrateRankModel(acc float64, theta Theta, calN, nbCal int) *RankModel {
	return cluster.CalibrateRankModel(acc, theta, calN, nbCal)
}

// AnalyticCholesky models the factorization at true tile granularity with
// roofline bounds (used for paper-scale figures).
func AnalyticCholesky(m Machine, w Workload) SimResult { return cluster.AnalyticCholesky(m, w) }

// AnalyticPrediction models the prediction operation of Fig. 5.
func AnalyticPrediction(m Machine, w Workload, nRHS int) SimResult {
	return cluster.AnalyticPrediction(m, w, nRHS)
}
