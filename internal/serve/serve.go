package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"regexp"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/cov"
	"repro/internal/dataio"
	"repro/internal/geom"
	"repro/internal/obs"
)

// Config bounds the server's resource use. Zero fields take the defaults
// documented on each field.
type Config struct {
	// MaxBatch is the largest point count one predict request may carry
	// (default 16384; larger batches are rejected with 413).
	MaxBatch int
	// MaxQueue caps the predict requests per model waiting for a running
	// slot (default 256; beyond it the server sheds load with 503 instead of
	// buffering unboundedly).
	MaxQueue int
	// MaxModels caps registered models (default 64; 429 beyond).
	MaxModels int
	// MaxPoints caps observations per ingested model (default 1_000_000;
	// 413 beyond).
	MaxPoints int
}

func (c Config) withDefaults() Config {
	if c.MaxBatch == 0 {
		c.MaxBatch = 16384
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 256
	}
	if c.MaxModels == 0 {
		c.MaxModels = 64
	}
	if c.MaxPoints == 0 {
		c.MaxPoints = 1_000_000
	}
	return c
}

var (
	errQueueFull    = errors.New("serve: prediction queue full")
	errShuttingDown = errors.New("serve: server shutting down")
)

// nameRE bounds model names to filesystem- and URL-safe tokens.
var nameRE = regexp.MustCompile(`^[a-zA-Z0-9._-]{1,64}$`)

// cntPredictShed counts predictions dropped before they reached the session
// — because the requesting client disconnected while they waited for a slot,
// or because the server began shutting down.
var cntPredictShed = obs.GetCounter("serve.predict.shed")

// model is one registered session and the admission gate in front of it.
// Handlers call the session directly — it is safe for concurrent use, and
// predicts at the model's θ run side by side on its read-only factor — so the
// gate only bounds how many do: slots is a semaphore of running predicts, one
// per processor, and waiting counts the requests queued for a slot, capped at
// Config.MaxQueue.
type model struct {
	info  ModelInfo
	sess  *core.Session
	theta cov.Params

	slots   chan struct{}
	waiting atomic.Int64

	// inflight counts predict requests from registry lookup to reply. The
	// lookup adds under the registry's read lock while the model is still in
	// the map, delete and Close remove it under the write lock and only then
	// wait, so no Add can race the Wait.
	inflight sync.WaitGroup

	predicts atomic.Int64
}

func newModel(info ModelInfo, sess *core.Session, theta cov.Params) *model {
	return &model{info: info, sess: sess, theta: theta, slots: make(chan struct{}, runtime.GOMAXPROCS(0))}
}

// admit takes a running slot, waiting for one behind at most maxQueue other
// requests. A request whose client goes away, or that the server's shutdown
// finds still waiting, is shed without reaching the session.
func (m *model) admit(ctx context.Context, stop <-chan struct{}, maxQueue int) error {
	var err error
	select {
	case m.slots <- struct{}{}:
	default:
		if m.waiting.Add(1) > int64(maxQueue) {
			m.waiting.Add(-1)
			return errQueueFull
		}
		select {
		case m.slots <- struct{}{}:
		case <-ctx.Done():
			err = ctx.Err()
		case <-stop:
			err = errShuttingDown
		}
		m.waiting.Add(-1)
	}
	if err == nil {
		// A slot can come free together with a cancellation or the shutdown;
		// neither may cost the session a solve.
		select {
		case <-ctx.Done():
			err = ctx.Err()
		case <-stop:
			err = errShuttingDown
		default:
			return nil
		}
		<-m.slots
	}
	cntPredictShed.Inc()
	return err
}

// predict answers one admitted request from the session and frees its slot.
func (m *model) predict(points []geom.Point, withVariance bool) (pr core.Prediction, elapsed time.Duration, err error) {
	defer func() { <-m.slots }()
	start := time.Now()
	if withVariance {
		pr, err = m.sess.PredictWithVariance(points, m.theta)
	} else {
		pr.Mean, err = m.sess.Predict(points, m.theta)
	}
	if err == nil {
		m.predicts.Add(1)
	}
	return pr, time.Since(start), err
}

// retire waits for the model's in-flight predicts and closes its session.
// The model must already be out of the registry.
func (m *model) retire() {
	m.inflight.Wait()
	_ = m.sess.Close() // releases only an out-of-core spill file; no caller to report to
}

func (m *model) snapshot() ModelInfo {
	info := m.info
	info.Predicts = m.predicts.Load()
	return info
}

// Server is the kriging service: registry, handlers, and limits. Create one
// with New and mount it (it implements http.Handler).
type Server struct {
	cfg Config
	mux *http.ServeMux

	mu     sync.RWMutex
	models map[string]*model
	closed bool

	// stop is closed by Close: predicts waiting at a model's gate are shed.
	stop chan struct{}

	// draining flips when graceful shutdown begins (BeginShutdown), before
	// the listener stops accepting: readyz turns 503 so load balancers pull
	// the instance out of rotation while in-flight requests finish.
	draining atomic.Bool

	endpoints []string // instrumented endpoint names, for /metrics
}

// New builds a server with its routes mounted, every one under the versioned
// /v1/ prefix.
func New(cfg Config) *Server {
	s := &Server{
		cfg:    cfg.withDefaults(),
		mux:    http.NewServeMux(),
		models: map[string]*model{},
		stop:   make(chan struct{}),
	}
	mount := func(method, path, name string, h func(http.ResponseWriter, *http.Request) int) {
		s.mux.HandleFunc(method+" /v1"+path, s.instrument(name, h))
	}
	mount("POST", "/models", "create", s.handleCreate)
	mount("GET", "/models", "list", s.handleList)
	mount("GET", "/models/{name}", "get", s.handleGet)
	mount("DELETE", "/models/{name}", "delete", s.handleDelete)
	mount("POST", "/models/{name}/predict", "predict", s.handlePredict)
	mount("GET", "/metrics", "metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		w.Write([]byte("ok\n"))
	})
	s.mux.HandleFunc("GET /v1/readyz", func(w http.ResponseWriter, r *http.Request) {
		if !s.Ready() {
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte("draining\n"))
			return
		}
		w.WriteHeader(http.StatusOK)
		w.Write([]byte("ready\n"))
	})
	return s
}

// Ready reports whether the registry is accepting work: true from New until
// BeginShutdown or Close. Distinct from liveness — a draining server is
// still alive (healthz 200) but not ready (readyz 503), the split
// orchestrators need to stop routing to an instance without restarting it.
func (s *Server) Ready() bool {
	if s.draining.Load() {
		return false
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return !s.closed
}

// BeginShutdown marks the server draining: readyz flips to 503 immediately
// while every other endpoint keeps serving. Call it before stopping the
// listener (http.Server.Shutdown) so load balancers see the instance
// not-ready and drain traffic ahead of the close. Idempotent; Close implies
// it.
func (s *Server) BeginShutdown() { s.draining.Store(true) }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Close deletes every model and closes its session. Subsequent creates and
// predicts are rejected with 503; predicts waiting for a slot are shed with
// 503 instead of executed — shutdown waits only for the solves already
// running, never for the backlog. Idempotent.
func (s *Server) Close() {
	s.BeginShutdown()
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.stop)
	}
	models := s.models
	s.models = map[string]*model{}
	s.mu.Unlock()
	for _, m := range models {
		m.retire()
	}
}

// instrument wraps a handler with a per-endpoint latency histogram
// ("serve.http.<name>.ns") and request/error counters. Handlers return the
// HTTP status they wrote so errors are counted exactly.
func (s *Server) instrument(name string, h func(http.ResponseWriter, *http.Request) int) http.HandlerFunc {
	hist := obs.GetHistogram("serve.http." + name + ".ns")
	reqs := obs.GetCounter("serve.http." + name + ".requests")
	errs := obs.GetCounter("serve.http." + name + ".errors")
	s.endpoints = append(s.endpoints, name)
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		status := h(w, r)
		hist.ObserveDuration(time.Since(start))
		reqs.Inc()
		if status >= 400 {
			errs.Inc()
		}
	}
}

// writeJSON encodes v before it commits to a status: JSON has no NaN or Inf,
// so a result that overflowed (a coordinate so far out that the covariance
// evaluates to ∞·0) is refused as the request's fault instead of going out
// as a 2xx with an empty body.
func writeJSON(w http.ResponseWriter, status int, v any) int {
	body, err := json.Marshal(v)
	if err != nil {
		return writeError(w, http.StatusUnprocessableEntity, "result is not representable in JSON: %v", err)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(append(body, '\n')) // a failed write is a client that left
	return status
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) int {
	return writeJSON(w, status, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// parseMode resolves a wire-format mode name through core's modes table, so
// a new mode becomes servable without touching this package. An empty name
// keeps the historical full-block default.
func parseMode(s string) (core.Mode, error) {
	if s == "" {
		return core.FullBlock, nil
	}
	return core.ModeByName(s)
}

// Bounds on the config knobs through which one request would size the
// process rather than tune its model: a tile edge allocates nb×nb scratch
// whatever the dataset's size, and every worker and rank is a goroutine.
const (
	maxTileSize = 4096
	maxParallel = 256
)

func toCoreConfig(mc ModelConfig) (core.Config, error) {
	mode, err := parseMode(mc.Mode)
	if err != nil {
		return core.Config{}, err
	}
	if mc.TileSize > maxTileSize || mc.Workers > maxParallel || mc.Ranks > maxParallel {
		return core.Config{}, fmt.Errorf("tile_size above %d, or workers or ranks above %d", maxTileSize, maxParallel)
	}
	cfg := core.Config{
		Mode:           mode,
		TileSize:       mc.TileSize,
		Accuracy:       mc.Accuracy,
		CompressorName: mc.Compressor,
		Workers:        mc.Workers,
		Nugget:         mc.Nugget,
		Ordering:       mc.Ordering,
		Ranks:          mc.Ranks,
	}
	if err := cfg.Validate(); err != nil {
		return core.Config{}, err
	}
	return cfg, nil
}

func toGeomPoints(pts []Point) []geom.Point {
	out := make([]geom.Point, len(pts))
	for i, p := range pts {
		out[i] = geom.Point{X: p.X, Y: p.Y}
	}
	return out
}

func toCovParams(t Theta) cov.Params {
	return cov.Params{Variance: t.Variance, Range: t.Range, Smoothness: t.Smoothness}
}

func fromCovParams(p cov.Params) Theta {
	return Theta{Variance: p.Variance, Range: p.Range, Smoothness: p.Smoothness}
}

// Body-size bounds, from the limits the server already has: a JSON float64
// is at most 25 bytes, so 128 bytes hold a {"x":…,"y":…} point and 192 a
// point with its observation, separators and indentation included; bodyBase
// covers the rest of the request object.
const (
	bodyBase       = 4096
	bodyPerPoint   = 128
	bodyPerObserve = 192
)

// decodeBody reads a JSON request body of at most limit bytes into v. When
// it cannot it writes the error reply — 413 for a body over the limit, 400
// for malformed JSON — and returns its status; 0 means v is filled.
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) int {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit)).Decode(v)
	var tooBig *http.MaxBytesError
	switch {
	case err == nil:
		return 0
	case errors.As(err, &tooBig):
		return writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds the %d-byte limit", limit)
	default:
		return writeError(w, http.StatusBadRequest, "malformed JSON: %v", err)
	}
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) int {
	var req CreateModelRequest
	if status := decodeBody(w, r, bodyBase+bodyPerObserve*int64(s.cfg.MaxPoints), &req); status != 0 {
		return status
	}
	if !nameRE.MatchString(req.Name) {
		return writeError(w, http.StatusBadRequest, "invalid model name %q (want %s)", req.Name, nameRE)
	}
	if len(req.Points) == 0 {
		return writeError(w, http.StatusBadRequest, "empty point list")
	}
	if len(req.Points) != len(req.Z) {
		return writeError(w, http.StatusBadRequest, "%d points but %d observations", len(req.Points), len(req.Z))
	}
	if len(req.Points) > s.cfg.MaxPoints {
		return writeError(w, http.StatusRequestEntityTooLarge, "%d observations exceeds the %d limit", len(req.Points), s.cfg.MaxPoints)
	}
	metricName := req.Metric
	if metricName == "" {
		metricName = "euclidean"
	}
	metric, err := dataio.MetricByName(metricName)
	if err != nil {
		return writeError(w, http.StatusBadRequest, "%v", err)
	}
	cfg, err := toCoreConfig(req.Config)
	if err != nil {
		return writeError(w, http.StatusBadRequest, "invalid config: %v", err)
	}
	if req.Theta != nil {
		if err := toCovParams(*req.Theta).Validate(); err != nil {
			return writeError(w, http.StatusBadRequest, "invalid theta: %v", err)
		}
	}

	// Reject duplicates and over-capacity before paying for the fit; the
	// insert below re-checks under the lock, so a racing create of the same
	// name still gets exactly one winner.
	s.mu.RLock()
	_, dup := s.models[req.Name]
	full := len(s.models) >= s.cfg.MaxModels
	closed := s.closed
	s.mu.RUnlock()
	if closed {
		return writeError(w, http.StatusServiceUnavailable, "server shutting down")
	}
	if dup {
		return writeError(w, http.StatusConflict, "model %q already exists", req.Name)
	}
	if full {
		return writeError(w, http.StatusTooManyRequests, "model capacity %d reached", s.cfg.MaxModels)
	}

	problem, err := core.NewProblem(toGeomPoints(req.Points), req.Z, metric)
	if err != nil {
		return writeError(w, http.StatusBadRequest, "%v", err)
	}
	sess, err := core.NewSession(problem, cfg)
	if err != nil {
		return writeError(w, http.StatusBadRequest, "%v", err)
	}
	registered := false
	defer func() {
		if !registered {
			_ = sess.Close() // the request already failed with its own error
		}
	}()

	info := ModelInfo{
		Name:   req.Name,
		N:      problem.N(),
		Mode:   sess.Config().Mode.String(),
		Metric: metricName,
	}
	var theta cov.Params
	if req.Theta != nil {
		theta = toCovParams(*req.Theta)
	} else {
		spec := req.Fit
		if spec == nil {
			spec = &FitSpec{}
		}
		opts := core.FitOptions{MaxEvals: spec.MaxEvals, FixSmoothness: spec.FixSmoothness, Profiled: spec.Profiled}
		if spec.Start != nil {
			opts.Start = toCovParams(*spec.Start)
		}
		fitStart := time.Now()
		fit, err := sess.Fit(opts)
		if err != nil {
			return writeError(w, http.StatusUnprocessableEntity, "fit failed: %v", err)
		}
		theta = fit.Theta
		info.Fitted = true
		info.LogLik = fit.LogL
		info.FitEvals = fit.Evals
		info.FitMS = float64(time.Since(fitStart).Microseconds()) / 1e3
	}
	info.Theta = fromCovParams(theta)

	// Warm the session's solve cache so the factorization is paid at ingest,
	// not by the first (unlucky) prediction request.
	if err := sess.Warm(theta); err != nil {
		return writeError(w, http.StatusUnprocessableEntity, "model unusable: %v", err)
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return writeError(w, http.StatusServiceUnavailable, "server shutting down")
	}
	if _, ok := s.models[req.Name]; ok {
		s.mu.Unlock()
		return writeError(w, http.StatusConflict, "model %q already exists", req.Name)
	}
	if len(s.models) >= s.cfg.MaxModels {
		s.mu.Unlock()
		return writeError(w, http.StatusTooManyRequests, "model capacity %d reached", s.cfg.MaxModels)
	}
	s.models[req.Name] = newModel(info, sess, theta)
	s.mu.Unlock()
	registered = true

	return writeJSON(w, http.StatusCreated, info)
}

func (s *Server) lookup(name string) (*model, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	m, ok := s.models[name]
	return m, ok
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) int {
	s.mu.RLock()
	infos := make([]ModelInfo, 0, len(s.models))
	for _, m := range s.models {
		infos = append(infos, m.snapshot())
	}
	s.mu.RUnlock()
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	return writeJSON(w, http.StatusOK, ListModelsResponse{Models: infos})
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) int {
	m, ok := s.lookup(r.PathValue("name"))
	if !ok {
		return writeError(w, http.StatusNotFound, "no model %q", r.PathValue("name"))
	}
	return writeJSON(w, http.StatusOK, m.snapshot())
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) int {
	name := r.PathValue("name")
	s.mu.Lock()
	m, ok := s.models[name]
	if ok {
		delete(s.models, name)
	}
	s.mu.Unlock()
	if !ok {
		return writeError(w, http.StatusNotFound, "no model %q", name)
	}
	// Outside the registry lock: the predicts already looked up, waiting or
	// running, finish with real replies before the session closes.
	m.retire()
	w.WriteHeader(http.StatusNoContent)
	return http.StatusNoContent
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) int {
	name := r.PathValue("name")
	s.mu.RLock()
	m, ok := s.models[name]
	if ok {
		m.inflight.Add(1)
	}
	closed := s.closed
	s.mu.RUnlock()
	if !ok {
		if closed {
			return writeError(w, http.StatusServiceUnavailable, "%v", errShuttingDown)
		}
		return writeError(w, http.StatusNotFound, "no model %q", name)
	}
	defer m.inflight.Done()

	var req PredictRequest
	if status := decodeBody(w, r, bodyBase+bodyPerPoint*int64(s.cfg.MaxBatch), &req); status != 0 {
		return status
	}
	if len(req.Points) == 0 {
		return writeError(w, http.StatusBadRequest, "empty point list")
	}
	if len(req.Points) > s.cfg.MaxBatch {
		return writeError(w, http.StatusRequestEntityTooLarge, "batch of %d exceeds the %d limit", len(req.Points), s.cfg.MaxBatch)
	}

	if err := m.admit(r.Context(), s.stop, s.cfg.MaxQueue); err != nil {
		// 503 in every case: overload, shutdown, or a client that went away
		// (that write is usually lost on the dead connection but keeps the
		// endpoint's error accounting exact).
		return writeError(w, http.StatusServiceUnavailable, "model %q: %v", name, err)
	}
	pr, elapsed, err := m.predict(toGeomPoints(req.Points), req.WithVariance)
	if err != nil {
		return writeError(w, http.StatusInternalServerError, "predict failed: %v", err)
	}

	resp := PredictResponse{
		Model:     name,
		N:         len(pr.Mean),
		Mean:      pr.Mean,
		Variance:  pr.Variance,
		ElapsedMS: float64(elapsed.Microseconds()) / 1e3,
	}
	if req.WithVariance {
		resp.CI95 = make([]float64, len(pr.Variance))
		for i := range pr.Variance {
			resp.CI95[i] = pr.CI95(i)
		}
	}
	return writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) int {
	snap := obs.Default().Snapshot()
	eps := make(map[string]EndpointStats, len(s.endpoints))
	for _, name := range s.endpoints {
		h := snap.Histograms["serve.http."+name+".ns"]
		eps[name] = EndpointStats{
			Count:  h.Count,
			Errors: snap.Counters["serve.http."+name+".errors"],
			MeanMS: h.Mean() / 1e6,
			P50MS:  float64(h.Quantile(0.50)) / 1e6,
			P99MS:  float64(h.Quantile(0.99)) / 1e6,
			MaxMS:  float64(h.Max) / 1e6,
		}
	}
	s.mu.RLock()
	infos := make([]ModelInfo, 0, len(s.models))
	for _, m := range s.models {
		infos = append(infos, m.snapshot())
	}
	s.mu.RUnlock()
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	return writeJSON(w, http.StatusOK, MetricsResponse{Obs: snap, Endpoints: eps, Models: infos})
}
