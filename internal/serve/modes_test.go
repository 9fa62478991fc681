package serve

import (
	"net/http"
	"testing"
)

// TestServeRegistryModes: the wire API accepts every registered backend name
// (via core's registry), including the HODLR mode end to end.
func TestServeRegistryModes(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	pts, z := testDataset(t, 120, 32)
	for _, mode := range []string{"hodlr", "full-tile"} {
		req := CreateModelRequest{
			Name: "m-" + mode, Points: pts, Z: z, Theta: &testTheta,
			Config: ModelConfig{Mode: mode, TileSize: 32, Accuracy: 1e-9},
		}
		var info ModelInfo
		if code := do(t, s, "POST", "/v1/models", req, &info); code != http.StatusCreated {
			t.Fatalf("create mode %q: status %d", mode, code)
		}
		var resp PredictResponse
		if code := do(t, s, "POST", "/v1/models/m-"+mode+"/predict",
			PredictRequest{Points: []Point{{X: 0.5, Y: 0.5}}}, &resp); code != http.StatusOK {
			t.Fatalf("predict mode %q: status %d", mode, code)
		}
	}
}
