package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/cov"
	"repro/internal/geom"
	"repro/internal/obs"
)

var testTheta = Theta{Variance: 1, Range: 0.1, Smoothness: 0.5}

// testDataset samples a synthetic field and returns it in wire form.
func testDataset(t *testing.T, n int, seed uint64) ([]Point, []float64) {
	t.Helper()
	syn, err := core.GenerateSynthetic(n, 0, cov.Params{Variance: 1, Range: 0.1, Smoothness: 0.5}, seed)
	if err != nil {
		t.Fatal(err)
	}
	pts := make([]Point, syn.Train.N())
	for i, p := range syn.Train.Points {
		pts[i] = Point{X: p.X, Y: p.Y}
	}
	return pts, syn.Train.Z
}

// do runs one request through the server and decodes the JSON reply into out
// (when out is non-nil and the body is non-empty).
func do(t *testing.T, s *Server, method, path string, body, out any) int {
	t.Helper()
	var rd *bytes.Reader
	switch b := body.(type) {
	case nil:
		rd = bytes.NewReader(nil)
	case string:
		rd = bytes.NewReader([]byte(b))
	default:
		buf, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(buf)
	}
	req := httptest.NewRequest(method, path, rd)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if out != nil && rec.Body.Len() > 0 {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("%s %s: bad JSON reply %q: %v", method, path, rec.Body.String(), err)
		}
	}
	return rec.Code
}

func createTestModel(t *testing.T, s *Server, name string, n int, seed uint64) ([]Point, []float64) {
	t.Helper()
	pts, z := testDataset(t, n, seed)
	req := CreateModelRequest{Name: name, Points: pts, Z: z, Theta: &testTheta}
	var info ModelInfo
	if code := do(t, s, "POST", "/v1/models", req, &info); code != http.StatusCreated {
		t.Fatalf("create %q: status %d", name, code)
	}
	if info.N != n || info.Fitted {
		t.Fatalf("create %q: unexpected info %+v", name, info)
	}
	return pts, z
}

func TestCreateValidation(t *testing.T) {
	s := New(Config{MaxPoints: 100, MaxModels: 2})
	defer s.Close()
	pts, z := testDataset(t, 36, 1)

	cases := []struct {
		name string
		body any
		want int
	}{
		{"malformed JSON", `{"name": "x", `, http.StatusBadRequest},
		{"bad name", CreateModelRequest{Name: "no spaces allowed", Points: pts, Z: z, Theta: &testTheta}, http.StatusBadRequest},
		{"empty points", CreateModelRequest{Name: "m", Theta: &testTheta}, http.StatusBadRequest},
		{"length mismatch", CreateModelRequest{Name: "m", Points: pts, Z: z[:10], Theta: &testTheta}, http.StatusBadRequest},
		{"unknown metric", CreateModelRequest{Name: "m", Points: pts, Z: z, Metric: "manhattan", Theta: &testTheta}, http.StatusBadRequest},
		{"unknown mode", CreateModelRequest{Name: "m", Points: pts, Z: z, Config: ModelConfig{Mode: "sparse"}, Theta: &testTheta}, http.StatusBadRequest},
		{"bad config", CreateModelRequest{Name: "m", Points: pts, Z: z, Config: ModelConfig{Workers: -1}, Theta: &testTheta}, http.StatusBadRequest},
		{"process-sized config", CreateModelRequest{Name: "m", Points: pts, Z: z, Config: ModelConfig{Mode: "tlr", Ranks: 1 << 30}, Theta: &testTheta}, http.StatusBadRequest},
		{"bad theta", CreateModelRequest{Name: "m", Points: pts, Z: z, Theta: &Theta{Variance: -1}}, http.StatusBadRequest},
		{"body over the byte bound", `{"name": "m", ` + strings.Repeat(" ", bodyBase+bodyPerObserve*100) + `"points": []}`, http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		var e ErrorResponse
		if code := do(t, s, "POST", "/v1/models", tc.body, &e); code != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, code, tc.want)
		} else if e.Error == "" {
			t.Errorf("%s: error reply missing message", tc.name)
		}
	}

	// Oversized dataset → 413.
	bigPts, bigZ := testDataset(t, 121, 2)
	if code := do(t, s, "POST", "/v1/models", CreateModelRequest{Name: "big", Points: bigPts, Z: bigZ, Theta: &testTheta}, nil); code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized dataset: status %d, want 413", code)
	}

	// Duplicate name → 409; capacity → 429.
	createTestModel(t, s, "a", 36, 3)
	if code := do(t, s, "POST", "/v1/models", CreateModelRequest{Name: "a", Points: pts, Z: z, Theta: &testTheta}, nil); code != http.StatusConflict {
		t.Errorf("duplicate: status %d, want 409", code)
	}
	createTestModel(t, s, "b", 36, 4)
	if code := do(t, s, "POST", "/v1/models", CreateModelRequest{Name: "c", Points: pts, Z: z, Theta: &testTheta}, nil); code != http.StatusTooManyRequests {
		t.Errorf("over capacity: status %d, want 429", code)
	}
}

func TestPredictValidation(t *testing.T) {
	s := New(Config{MaxBatch: 8})
	defer s.Close()
	createTestModel(t, s, "m", 64, 5)

	one := PredictRequest{Points: []Point{{X: 0.5, Y: 0.5}}}
	cases := []struct {
		name, model string
		body        any
		want        int
	}{
		{"unknown model", "ghost", one, http.StatusNotFound},
		{"malformed JSON", "m", `{"points": [{`, http.StatusBadRequest},
		{"empty point list", "m", PredictRequest{}, http.StatusBadRequest},
		{"oversized batch", "m", PredictRequest{Points: make([]Point, 9)}, http.StatusRequestEntityTooLarge},
		{"body over the byte bound", "m", `{` + strings.Repeat(" ", bodyBase+bodyPerPoint*8) + `"points": []}`, http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		if code := do(t, s, "POST", "/v1/models/"+tc.model+"/predict", tc.body, nil); code != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, code, tc.want)
		}
	}
}

// TestPredictMatchesDirect is the serving-correctness anchor: the HTTP path
// (ingest → gate → session → JSON round-trip) must reproduce direct Session.Predict
// bit for bit. encoding/json emits shortest-round-trip float64, so exact
// comparison is legitimate.
func TestPredictMatchesDirect(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	pts, z := createTestModel(t, s, "m", 144, 6)

	query := []Point{{X: 0.21, Y: 0.43}, {X: 0.87, Y: 0.12}, {X: 0.5, Y: 0.5}}
	var resp PredictResponse
	if code := do(t, s, "POST", "/v1/models/m/predict", PredictRequest{Points: query}, &resp); code != http.StatusOK {
		t.Fatalf("predict: status %d", code)
	}

	problem, err := core.NewProblem(toGeomPoints(pts), z, geom.Euclidean)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := core.NewSession(problem, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := sess.Predict(toGeomPoints(query), toCovParams(testTheta))
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Mean) != len(want) {
		t.Fatalf("predict returned %d means, want %d", len(resp.Mean), len(want))
	}
	for i := range want {
		if resp.Mean[i] != want[i] {
			t.Errorf("mean[%d] = %v over HTTP, %v direct", i, resp.Mean[i], want[i])
		}
	}
}

func TestPredictWithVariance(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	pts, z := createTestModel(t, s, "m", 100, 7)

	query := []Point{pts[0], {X: 50, Y: 50}} // on an observation, and far away
	var resp PredictResponse
	code := do(t, s, "POST", "/v1/models/m/predict", PredictRequest{Points: query, WithVariance: true}, &resp)
	if code != http.StatusOK {
		t.Fatalf("predict: status %d", code)
	}
	if len(resp.Variance) != 2 || len(resp.CI95) != 2 {
		t.Fatalf("variance/ci95 missing: %+v", resp)
	}
	if resp.Variance[0] > 0.01 {
		t.Errorf("variance on an observation should be ~0: %g", resp.Variance[0])
	}
	if resp.Variance[1] < 0.9 {
		t.Errorf("variance far from data should approach θ₁: %g", resp.Variance[1])
	}
	for i, v := range resp.Variance {
		if want := 1.96 * math.Sqrt(v); resp.CI95[i] != want {
			t.Errorf("ci95[%d] = %g, want %g", i, resp.CI95[i], want)
		}
	}
	if resp.Mean[0] == 0 || math.Abs(resp.Mean[0]-z[0]) > 0.05 {
		t.Errorf("mean on an observation should reproduce it: %g vs %g", resp.Mean[0], z[0])
	}

	// Variance request against the direct session, exact match.
	problem, err := core.NewProblem(toGeomPoints(pts), z, geom.Euclidean)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := core.NewSession(problem, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := sess.PredictWithVariance(toGeomPoints(query), toCovParams(testTheta))
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Mean {
		if resp.Mean[i] != want.Mean[i] || resp.Variance[i] != want.Variance[i] {
			t.Errorf("point %d: HTTP (%v, %v) vs direct (%v, %v)",
				i, resp.Mean[i], resp.Variance[i], want.Mean[i], want.Variance[i])
		}
	}
}

// TestOneFactorizationAcrossPredicts asserts the serving hot path's core
// property: a fixed-θ model factors Σ exactly once (at ingest warmup), and
// every subsequent predict is a cache hit.
func TestOneFactorizationAcrossPredicts(t *testing.T) {
	factorRuns := obs.GetCounter("core.factor.runs")
	cacheHits := obs.GetCounter("core.predict.cache.hit")
	runs0 := factorRuns.Value()

	s := New(Config{})
	defer s.Close()
	createTestModel(t, s, "m", 144, 8)
	afterCreate := factorRuns.Value()
	if afterCreate-runs0 != 1 {
		t.Fatalf("ingest should factor exactly once, got %d", afterCreate-runs0)
	}

	hits0 := cacheHits.Value()
	for i := 0; i < 5; i++ {
		q := PredictRequest{Points: []Point{{X: 0.1 * float64(i+1), Y: 0.3}}, WithVariance: i%2 == 1}
		if code := do(t, s, "POST", "/v1/models/m/predict", q, nil); code != http.StatusOK {
			t.Fatalf("predict %d: status %d", i, code)
		}
	}
	if d := factorRuns.Value() - afterCreate; d != 0 {
		t.Errorf("predicts after ingest ran %d extra factorizations, want 0", d)
	}
	if d := cacheHits.Value() - hits0; d != 5 {
		t.Errorf("cache hits = %d, want 5", d)
	}
}

// TestConcurrentPredicts hammers one model from many goroutines; every
// request must succeed (the default queue is deep enough) and return the same
// answer. Run under -race this also proves the handlers share nothing but
// the session, whose own lock covers it.
func TestConcurrentPredicts(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	createTestModel(t, s, "m", 100, 9)

	query := PredictRequest{Points: []Point{{X: 0.37, Y: 0.61}}}
	var ref PredictResponse
	if code := do(t, s, "POST", "/v1/models/m/predict", query, &ref); code != http.StatusOK {
		t.Fatalf("reference predict: status %d", code)
	}

	const workers, iters = 16, 6
	var wg sync.WaitGroup
	var ok, shed atomic.Int64
	errc := make(chan error, workers*iters)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				body, _ := json.Marshal(query)
				req := httptest.NewRequest("POST", "/v1/models/m/predict", bytes.NewReader(body))
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, req)
				switch rec.Code {
				case http.StatusOK:
					var resp PredictResponse
					if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
						errc <- err
						continue
					}
					if len(resp.Mean) != 1 || resp.Mean[0] != ref.Mean[0] {
						errc <- fmt.Errorf("mean %v, want %v", resp.Mean, ref.Mean)
					}
					ok.Add(1)
				case http.StatusServiceUnavailable:
					shed.Add(1) // legal under load, must not corrupt anything
				default:
					errc <- fmt.Errorf("status %d: %s", rec.Code, rec.Body.String())
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if ok.Load() == 0 {
		t.Fatal("no request succeeded")
	}
	t.Logf("%d ok, %d shed", ok.Load(), shed.Load())
}

func TestDeleteModel(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	createTestModel(t, s, "m", 36, 10)

	if code := do(t, s, "DELETE", "/v1/models/m", nil, nil); code != http.StatusNoContent {
		t.Fatalf("delete: status %d", code)
	}
	if code := do(t, s, "DELETE", "/v1/models/m", nil, nil); code != http.StatusNotFound {
		t.Errorf("double delete: status %d, want 404", code)
	}
	if code := do(t, s, "POST", "/v1/models/m/predict", PredictRequest{Points: []Point{{X: 0.5, Y: 0.5}}}, nil); code != http.StatusNotFound {
		t.Errorf("predict after delete: status %d, want 404", code)
	}
	// The name is reusable after deletion.
	createTestModel(t, s, "m", 36, 11)
}

func TestListGetAndMetrics(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	createTestModel(t, s, "alpha", 36, 12)
	createTestModel(t, s, "beta", 36, 13)
	if code := do(t, s, "POST", "/v1/models/alpha/predict", PredictRequest{Points: []Point{{X: 0.5, Y: 0.5}}}, nil); code != http.StatusOK {
		t.Fatalf("predict: status %d", code)
	}

	var list ListModelsResponse
	if code := do(t, s, "GET", "/v1/models", nil, &list); code != http.StatusOK {
		t.Fatalf("list: status %d", code)
	}
	if len(list.Models) != 2 || list.Models[0].Name != "alpha" || list.Models[1].Name != "beta" {
		t.Fatalf("list = %+v", list.Models)
	}
	if list.Models[0].Predicts != 1 {
		t.Errorf("alpha served %d predicts, want 1", list.Models[0].Predicts)
	}

	var info ModelInfo
	if code := do(t, s, "GET", "/v1/models/alpha", nil, &info); code != http.StatusOK || info.Name != "alpha" {
		t.Fatalf("get: status %d info %+v", code, info)
	}
	if code := do(t, s, "GET", "/v1/models/ghost", nil, nil); code != http.StatusNotFound {
		t.Errorf("get unknown: status %d, want 404", code)
	}

	var metrics MetricsResponse
	if code := do(t, s, "GET", "/v1/metrics", nil, &metrics); code != http.StatusOK {
		t.Fatalf("metrics: status %d", code)
	}
	if metrics.Endpoints["predict"].Count == 0 {
		t.Error("metrics missing predict endpoint latencies")
	}
	if metrics.Obs.Counters["core.predict.cache.hit"] == 0 {
		t.Error("metrics missing core cache-hit evidence counter")
	}
	if len(metrics.Models) != 2 {
		t.Errorf("metrics lists %d models, want 2", len(metrics.Models))
	}
}

func TestFitAtIngest(t *testing.T) {
	if testing.Short() {
		t.Skip("fit is slow")
	}
	s := New(Config{})
	defer s.Close()
	pts, z := testDataset(t, 100, 14)
	req := CreateModelRequest{
		Name: "fitted", Points: pts, Z: z,
		Fit: &FitSpec{MaxEvals: 40, FixSmoothness: true, Start: &testTheta, Profiled: true},
	}
	var info ModelInfo
	if code := do(t, s, "POST", "/v1/models", req, &info); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	if !info.Fitted || info.FitEvals == 0 {
		t.Fatalf("fit info missing: %+v", info)
	}
	if info.Theta.Smoothness != testTheta.Smoothness {
		t.Errorf("smoothness should stay fixed: %g", info.Theta.Smoothness)
	}
	if info.Theta.Range < 0.005 || info.Theta.Range > 2 {
		t.Errorf("fitted range %g implausible", info.Theta.Range)
	}
	if code := do(t, s, "POST", "/v1/models/fitted/predict", PredictRequest{Points: []Point{{X: 0.5, Y: 0.5}}}, nil); code != http.StatusOK {
		t.Errorf("predict on fitted model: status %d", code)
	}
}

func TestHealthz(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	req := httptest.NewRequest("GET", "/v1/healthz", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "ok") {
		t.Fatalf("healthz: %d %q", rec.Code, rec.Body.String())
	}
}

// TestReadyzDrainsBeforeClose: readiness is distinct from liveness. A fresh
// server is ready; BeginShutdown flips readyz to 503
// while healthz keeps reporting the process alive (so orchestrators stop
// routing without restarting the instance); Close keeps it not-ready.
func TestReadyzDrainsBeforeClose(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	get := func(path string) (int, string) {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec.Code, rec.Body.String()
	}
	if code, body := get("/v1/readyz"); code != http.StatusOK || !strings.Contains(body, "ready") {
		t.Fatalf("fresh server: %d %q", code, body)
	}
	s.BeginShutdown()
	if s.Ready() {
		t.Fatal("Ready() must be false after BeginShutdown")
	}
	if code, body := get("/v1/readyz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "draining") {
		t.Fatalf("draining readyz: %d %q", code, body)
	}
	if code, _ := get("/v1/healthz"); code != http.StatusOK {
		t.Fatalf("draining healthz must stay 200, got %d", code)
	}
	s.BeginShutdown() // idempotent
	s.Close()
	if code, _ := get("/v1/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("closed readyz: %d", code)
	}
}
