package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// FuzzServeBodies feeds arbitrary bytes to the two endpoints that read a
// request body from the network — model creation and prediction. Whatever
// arrives, the server must not panic, must not answer 5xx (a body it cannot
// use is the client's error), and must reply with JSON: an ErrorResponse
// carrying a message on every refusal.
func FuzzServeBodies(f *testing.F) {
	const grid = `"points":[{"x":0.1,"y":0.1},{"x":0.5,"y":0.2},{"x":0.9,"y":0.3},{"x":0.2,"y":0.8},{"x":0.7,"y":0.7}],"z":[0.3,-0.2,0.1,0.5,-0.4]`
	for _, seed := range [][2]string{
		{`{"name":"a",` + grid + `,"theta":{"variance":1,"range":0.1,"smoothness":0.5}}`, `{"points":[{"x":0.5,"y":0.5}],"with_variance":true}`},
		{`{"name":"b",` + grid + `,"fit":{"max_evals":5,"profiled":true},"config":{"mode":"tlr","tile_size":2,"ranks":2}}`, `{"points":[{"x":1e308,"y":-1e308},{"x":0,"y":0}]}`},
		{`{"name":"c",` + grid + `,"metric":"haversine","config":{"mode":"hodlr","tile_size":2,"workers":3,"ordering":"hilbert"},"theta":{"variance":2,"range":1e300,"smoothness":2.5}}`, `{"points":[]}`},
		{`{"name":"m",` + grid + `}`, `{"points":[{"x":"0.5"}]}`},
		{`{"name":"d","points":[{"x":0,"y":0},{"x":0,"y":0}],"z":[1,1],"theta":{"variance":1,"range":1,"smoothness":1}}`, `[1,2,3]`},
		{`{"name":"e",` + grid + `,"config":{"tile_size":-1,"ranks":1073741824}}`, `{"points":[{"x":0.5,"y":0.5}]} trailing`},
		{`{"name": "x", `, ``},
		{`null`, `null`},
	} {
		f.Add([]byte(seed[0]), []byte(seed[1]))
	}
	f.Fuzz(func(t *testing.T, create, predict []byte) {
		s := New(Config{MaxPoints: 12, MaxBatch: 6, MaxModels: 2})
		defer s.Close()
		post := func(path string, body []byte) int {
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, httptest.NewRequest("POST", path, bytes.NewReader(body)))
			if rec.Code >= 500 {
				t.Fatalf("POST %s %q: status %d: %s", path, body, rec.Code, rec.Body)
			}
			var e ErrorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
				t.Fatalf("POST %s %q: status %d with a body that is not JSON: %q", path, body, rec.Code, rec.Body)
			}
			if rec.Code >= 400 && e.Error == "" {
				t.Fatalf("POST %s %q: status %d without a message", path, body, rec.Code)
			}
			return rec.Code
		}
		// A known-good model for the predict body to reach, then the fuzzed
		// create beside it.
		if code := post("/v1/models", []byte(`{"name":"m",`+grid+`,"theta":{"variance":1,"range":0.2,"smoothness":1.5}}`)); code != http.StatusCreated {
			t.Fatalf("reference model: status %d", code)
		}
		post("/v1/models", create)
		post("/v1/models/m/predict", predict)
	})
}
