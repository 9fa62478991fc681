package main

import (
	"context"
	"errors"
	"net"
	"net/http"
	"testing"
	"time"

	"repro/client"
	"repro/internal/core"
	"repro/internal/cov"
	"repro/internal/serve"
)

// bootServer starts a real exaserve instance on a loopback TCP port and
// returns a client pointed at it — the same wiring main() builds, minus the
// signal handling.
func bootServer(t *testing.T) *client.Client {
	t.Helper()
	srv := serve.New(serve.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: srv}
	go hs.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		hs.Shutdown(ctx)
		srv.Close()
	})
	return client.New("http://" + ln.Addr().String())
}

// TestEndToEndFitPredict round-trips the full service loop over real TCP:
// ingest with a maximum-likelihood fit, predict with uncertainty through the
// Go client, verify against the direct in-process computation, delete.
func TestEndToEndFitPredict(t *testing.T) {
	c := bootServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	if err := c.Healthz(ctx); err != nil {
		t.Fatalf("healthz: %v", err)
	}

	syn, err := core.GenerateSynthetic(100, 10, cov.Params{Variance: 1, Range: 0.1, Smoothness: 0.5}, 77)
	if err != nil {
		t.Fatal(err)
	}
	pts := make([]client.Point, syn.Train.N())
	for i, p := range syn.Train.Points {
		pts[i] = client.Point{X: p.X, Y: p.Y}
	}
	start := client.Theta{Variance: 1, Range: 0.1, Smoothness: 0.5}
	info, err := c.CreateModel(ctx, client.CreateModelRequest{
		Name: "e2e", Points: pts, Z: syn.Train.Z,
		Fit: &client.FitSpec{MaxEvals: 40, FixSmoothness: true, Start: &start},
	})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if !info.Fitted || info.N != 90 {
		t.Fatalf("fit info: %+v", info)
	}

	query := make([]client.Point, len(syn.TestPoints))
	for i, p := range syn.TestPoints {
		query[i] = client.Point{X: p.X, Y: p.Y}
	}
	resp, err := c.Predict(ctx, "e2e", query, true)
	if err != nil {
		t.Fatalf("predict: %v", err)
	}
	if len(resp.Mean) != len(query) || len(resp.Variance) != len(query) || len(resp.CI95) != len(query) {
		t.Fatalf("predict reply shape: %+v", resp)
	}

	// The served predictions must equal the direct Session computation at the
	// fitted θ, exactly.
	sess, err := core.NewSession(syn.Train, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	theta := cov.Params{Variance: info.Theta.Variance, Range: info.Theta.Range, Smoothness: info.Theta.Smoothness}
	want, err := sess.PredictWithVariance(syn.TestPoints, theta)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Mean {
		if resp.Mean[i] != want.Mean[i] || resp.Variance[i] != want.Variance[i] {
			t.Errorf("point %d: served (%v, %v) vs direct (%v, %v)",
				i, resp.Mean[i], resp.Variance[i], want.Mean[i], want.Variance[i])
		}
	}

	// MSE against held-out truth should be finite and small-ish (sanity that
	// the fit produced a usable model, not a numerical accident).
	if mse := core.MSE(resp.Mean, syn.TestZ); mse > 1 {
		t.Errorf("served predictions badly off: MSE %g", mse)
	}

	models, err := c.ListModels(ctx)
	if err != nil || len(models) != 1 {
		t.Fatalf("list: %v %v", models, err)
	}
	metrics, err := c.Metrics(ctx)
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	if metrics.Endpoints["predict"].Count == 0 {
		t.Error("metrics missing predict latencies")
	}
	if err := c.DeleteModel(ctx, "e2e"); err != nil {
		t.Fatalf("delete: %v", err)
	}
	var apiErr *client.APIError
	if _, err := c.Predict(ctx, "e2e", query, false); !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound {
		t.Errorf("predict after delete: %v, want 404 APIError", err)
	}
}
