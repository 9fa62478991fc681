// Command exaserve runs the kriging-as-a-service HTTP server: a registry of
// fitted geostatistics models, each answering concurrent predicts from one
// read-only factor behind an admission gate, exposing JSON endpoints under
// /v1/ for ingest, prediction with optional uncertainty, and observability.
//
//	exaserve -addr :8080
//
//	curl -X POST localhost:8080/v1/models -d '{
//	  "name": "field",
//	  "points": [{"x":0.1,"y":0.2}, ...], "z": [0.4, ...],
//	  "theta": {"variance":1, "range":0.1, "smoothness":0.5}}'
//	curl -X POST localhost:8080/v1/models/field/predict -d '{
//	  "points": [{"x":0.5,"y":0.5}], "with_variance": true}'
//	curl localhost:8080/v1/metrics
//
// Omit "theta" to run a maximum-likelihood fit at ingest (see the "fit"
// object for options). SIGINT/SIGTERM drain in-flight requests before exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/serve"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		maxBatch  = flag.Int("max-batch", 0, "max points per predict request (0 = default 16384)")
		maxQueue  = flag.Int("max-queue", 0, "max predicts per model waiting for a running slot (0 = default 256)")
		maxModels = flag.Int("max-models", 0, "max registered models (0 = default 64)")
		maxPoints = flag.Int("max-points", 0, "max observations per model (0 = default 1000000)")
		drain     = flag.Duration("drain", 10*time.Second, "graceful-shutdown drain budget")
	)
	flag.Parse()

	srv := serve.New(serve.Config{
		MaxBatch:  *maxBatch,
		MaxQueue:  *maxQueue,
		MaxModels: *maxModels,
		MaxPoints: *maxPoints,
	})
	hs := &http.Server{Addr: *addr, Handler: srv}

	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "exaserve: listening on %s\n", *addr)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		fmt.Fprintf(os.Stderr, "exaserve: %v\n", err)
		os.Exit(1)
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "exaserve: %v, draining\n", s)
	}

	srv.BeginShutdown() // readyz → 503 so balancers drain us before the listener stops
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(os.Stderr, "exaserve: shutdown: %v\n", err)
	}
	srv.Close()
}
