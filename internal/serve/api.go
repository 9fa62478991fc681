// Package serve is the kriging-as-a-service layer: a model registry plus
// HTTP/JSON handlers, every route under /v1/. Ingest (POST /v1/models) builds
// a core.Session and either fits θ̂ by maximum likelihood or accepts a fixed
// θ, then warms the session's solve cache; prediction (POST
// /v1/models/{name}/predict) calls the session from the request's own
// goroutine. A Session is safe for concurrent use and predicts at the
// model's θ only read its cached factor, so requests on one model run side
// by side, a slow variance batch beside the small mean requests. What bounds
// them is a per-model admission gate: one running slot per processor, at
// most MaxQueue requests waiting for one (503 beyond, and 503 for a waiter
// whose client leaves or whom shutdown finds waiting); batch, dataset and
// request-body sizes have explicit limits (413 beyond). GET /v1/metrics
// exposes the process-wide internal/obs snapshot plus per-endpoint latency
// histograms.
package serve

import "repro/internal/obs"

// Point is the wire form of a 2-D location.
type Point struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// Theta is the wire form of the Matérn parameter vector (paper θ = (θ₁, θ₂,
// θ₃) = variance, range, smoothness).
type Theta struct {
	Variance   float64 `json:"variance"`
	Range      float64 `json:"range"`
	Smoothness float64 `json:"smoothness"`
}

// ModelConfig tunes the computation backend for one model. The zero value
// means dense full-block with library defaults; names mirror core.Config.
// There is no compressor to choose: tlr and hodlr compress with the
// randomized SVD. Bodies from older clients that still send "compressor"
// are accepted: the request decoder ignores fields it does not know.
type ModelConfig struct {
	// Mode is "full-block" (default), "full-tile", "tlr" or "hodlr".
	Mode string `json:"mode,omitempty"`
	// TileSize is the tile edge nb (0 = default 128). It is also the column
	// chunk width of the prediction-variance path, so it bounds per-request
	// scratch memory at n×TileSize.
	TileSize int `json:"tile_size,omitempty"`
	// Accuracy is the TLR compression threshold (0 = default 1e-9).
	Accuracy float64 `json:"accuracy,omitempty"`
	// Workers is the shared-memory runtime worker count (0 = default 1).
	Workers int `json:"workers,omitempty"`
	// Nugget is the diagonal regularization (0 = default 1e-9·θ₁). A fit
	// at ingest concentrates θ₁ out and adds an explicit nugget to the
	// correlation matrix, so during the fit it acts as θ̂₁·Nugget on Σ
	// (core.Config.Nugget).
	Nugget float64 `json:"nugget,omitempty"`
	// Ordering overrides the spatial ordering ("morton", "hilbert",
	// "kdblock", "none"; "none" keeps the order the points were sent in).
	// "" picks by mode (core.Config.Ordering): KD blocks at TileSize for
	// tlr, Morton otherwise. The model's session sorts its own copy.
	Ordering string `json:"ordering,omitempty"`
	// Ranks selects the simulated distributed backend when > 1 (TLR only).
	Ranks int `json:"ranks,omitempty"`
}

// FitSpec controls the maximum-likelihood fit run at ingest when no fixed
// theta is supplied. The fit always concentrates θ₁ out (core.Session.Fit).
// Bodies from older clients that still send "profiled" are accepted: the
// request decoder ignores fields it does not know.
type FitSpec struct {
	// MaxEvals caps likelihood evaluations (0 = library default 300).
	MaxEvals int `json:"max_evals,omitempty"`
	// FixSmoothness pins θ₃ to the start value instead of estimating it.
	FixSmoothness bool `json:"fix_smoothness,omitempty"`
	// Start optionally seeds the search; zero fields get defaults, and its
	// variance is not used.
	Start *Theta `json:"start,omitempty"`
}

// CreateModelRequest ingests a dataset as a named model. Exactly one of two
// paths runs: a fixed Theta is validated and used as-is, or (Theta == nil) a
// maximum-likelihood fit estimates θ̂ under Fit's options.
type CreateModelRequest struct {
	Name   string      `json:"name"`
	Points []Point     `json:"points"`
	Z      []float64   `json:"z"`
	Metric string      `json:"metric,omitempty"` // default "euclidean"
	Config ModelConfig `json:"config,omitempty"`
	Theta  *Theta      `json:"theta,omitempty"`
	Fit    *FitSpec    `json:"fit,omitempty"`
}

// ModelInfo describes one registered model.
type ModelInfo struct {
	Name   string `json:"name"`
	N      int    `json:"n"`
	Theta  Theta  `json:"theta"`
	Fitted bool   `json:"fitted"` // true when θ came from an MLE fit
	// LogLik and FitEvals report the fit outcome (zero for fixed-θ models).
	LogLik   float64 `json:"loglik,omitempty"`
	FitEvals int     `json:"fit_evals,omitempty"`
	FitMS    float64 `json:"fit_ms,omitempty"`
	Mode     string  `json:"mode"`
	Metric   string  `json:"metric"`
	// Predicts counts prediction requests served by this model so far.
	Predicts int64 `json:"predicts"`
}

// ListModelsResponse is the GET /v1/models payload.
type ListModelsResponse struct {
	Models []ModelInfo `json:"models"`
}

// PredictRequest asks for kriging predictions at Points.
type PredictRequest struct {
	Points []Point `json:"points"`
	// WithVariance additionally returns the conditional variance and the
	// 95% confidence half-width per point (paper eq. 3).
	WithVariance bool `json:"with_variance,omitempty"`
}

// PredictResponse carries the predictions for one batch.
type PredictResponse struct {
	Model string    `json:"model"`
	N     int       `json:"n"`
	Mean  []float64 `json:"mean"`
	// Variance and CI95 are present only when the request set WithVariance.
	Variance []float64 `json:"variance,omitempty"`
	CI95     []float64 `json:"ci95,omitempty"`
	// ElapsedMS is the server-side solve time (the wait for a slot excluded).
	ElapsedMS float64 `json:"elapsed_ms"`
}

// ErrorResponse is the body of every non-2xx reply.
type ErrorResponse struct {
	Error string `json:"error"`
}

// EndpointStats summarizes one endpoint's latency histogram.
type EndpointStats struct {
	Count  int64   `json:"count"`
	Errors int64   `json:"errors"`
	MeanMS float64 `json:"mean_ms"`
	P50MS  float64 `json:"p50_ms"`
	P99MS  float64 `json:"p99_ms"`
	MaxMS  float64 `json:"max_ms"`
}

// MetricsResponse is the GET /v1/metrics payload: the full process-wide obs
// snapshot (every counter and histogram the compute layers maintain,
// including the core.predict.cache.* and core.factor.runs evidence counters),
// per-endpoint latency summaries, and the registered models.
type MetricsResponse struct {
	Obs       obs.Snapshot             `json:"obs"`
	Endpoints map[string]EndpointStats `json:"endpoints"`
	Models    []ModelInfo              `json:"models"`
}
