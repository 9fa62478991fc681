// Package client is the Go client for the exaserve kriging service
// (cmd/exaserve). It speaks the internal/serve wire protocol — the request
// and response types are re-exported here as aliases so a program can depend
// on this package alone:
//
//	c := client.New("http://localhost:8080")
//	info, _ := c.CreateModel(ctx, client.CreateModelRequest{
//		Name: "field", Points: pts, Z: z,
//		Theta: &client.Theta{Variance: 1, Range: 0.1, Smoothness: 0.5},
//	})
//	pred, _ := c.Predict(ctx, "field", query, true)
//
// Non-2xx replies surface as *APIError carrying the HTTP status and the
// server's message, so callers can distinguish load shedding (503) from
// caller bugs (4xx).
//
// The client targets the versioned /v1/ wire API, the only one the server
// mounts.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"repro/internal/serve"
)

// Wire types, aliased from the server so the two cannot drift.
type (
	Point              = serve.Point
	Theta              = serve.Theta
	ModelConfig        = serve.ModelConfig
	FitSpec            = serve.FitSpec
	CreateModelRequest = serve.CreateModelRequest
	ModelInfo          = serve.ModelInfo
	PredictRequest     = serve.PredictRequest
	PredictResponse    = serve.PredictResponse
	MetricsResponse    = serve.MetricsResponse
)

// APIError is a non-2xx reply from the server.
type APIError struct {
	Status  int    // HTTP status code
	Message string // server-provided error message
}

func (e *APIError) Error() string {
	return fmt.Sprintf("exaserve: %d %s: %s", e.Status, http.StatusText(e.Status), e.Message)
}

// IsOverload reports whether the server shed the request (queue full or
// shutting down) — the retryable class of failure.
func (e *APIError) IsOverload() bool { return e.Status == http.StatusServiceUnavailable }

// Client talks to one exaserve instance. The zero value is not usable; call
// New. Safe for concurrent use by any number of goroutines.
type Client struct {
	base string
	hc   *http.Client
}

// New returns a client for the server at base (e.g. "http://localhost:8080").
// The default http.Client is used; see NewWithHTTPClient to tune transport
// limits for high-concurrency load generation.
func New(base string) *Client { return NewWithHTTPClient(base, http.DefaultClient) }

// NewWithHTTPClient returns a client using the supplied http.Client.
func NewWithHTTPClient(base string, hc *http.Client) *Client {
	for len(base) > 0 && base[len(base)-1] == '/' {
		base = base[:len(base)-1]
	}
	return &Client{base: base, hc: hc}
}

// roundTrip runs one JSON request/reply exchange. A nil in sends no body; a
// nil out discards the reply body.
func (c *Client) roundTrip(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		buf, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("exaserve: encode request: %w", err)
		}
		body = bytes.NewReader(buf)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		var e serve.ErrorResponse
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
		if json.Unmarshal(msg, &e) == nil && e.Error != "" {
			return &APIError{Status: resp.StatusCode, Message: e.Error}
		}
		return &APIError{Status: resp.StatusCode, Message: string(bytes.TrimSpace(msg))}
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("exaserve: decode reply: %w", err)
	}
	return nil
}

// CreateModel ingests a dataset as a named model, fitting θ̂ unless the
// request fixes it.
func (c *Client) CreateModel(ctx context.Context, req CreateModelRequest) (ModelInfo, error) {
	var info ModelInfo
	err := c.roundTrip(ctx, http.MethodPost, "/v1/models", req, &info)
	return info, err
}

// ListModels returns every registered model.
func (c *Client) ListModels(ctx context.Context) ([]ModelInfo, error) {
	var list serve.ListModelsResponse
	err := c.roundTrip(ctx, http.MethodGet, "/v1/models", nil, &list)
	return list.Models, err
}

// GetModel returns one model's description.
func (c *Client) GetModel(ctx context.Context, name string) (ModelInfo, error) {
	var info ModelInfo
	err := c.roundTrip(ctx, http.MethodGet, "/v1/models/"+name, nil, &info)
	return info, err
}

// DeleteModel removes a model once its in-flight predicts are answered.
func (c *Client) DeleteModel(ctx context.Context, name string) error {
	return c.roundTrip(ctx, http.MethodDelete, "/v1/models/"+name, nil, nil)
}

// Predict returns kriging predictions at points, with conditional variance
// and 95% intervals when withVariance is set.
func (c *Client) Predict(ctx context.Context, model string, points []Point, withVariance bool) (PredictResponse, error) {
	var resp PredictResponse
	err := c.roundTrip(ctx, http.MethodPost, "/v1/models/"+model+"/predict",
		PredictRequest{Points: points, WithVariance: withVariance}, &resp)
	return resp, err
}

// Metrics returns the server's observability snapshot.
func (c *Client) Metrics(ctx context.Context) (MetricsResponse, error) {
	var m MetricsResponse
	err := c.roundTrip(ctx, http.MethodGet, "/v1/metrics", nil, &m)
	return m, err
}

// Healthz reports whether the server answers its liveness probe.
func (c *Client) Healthz(ctx context.Context) error {
	return c.roundTrip(ctx, http.MethodGet, "/v1/healthz", nil, nil)
}
