package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	goruntime "runtime"
	"slices"
	"sync/atomic"
	"time"

	"repro/client"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/serve"
)

// latencyLimitMS is the limit a served predict must meet at the reported
// tail percentile.
const latencyLimitMS = 100

// service is an in-process serve.Server on a loopback TCP port and the typed
// client that drives it over at most P connections.
type service struct {
	srv  *serve.Server
	hs   *http.Server
	tr   *http.Transport
	done chan struct{}
	cl   *client.Client
}

func startService(conns int) (*service, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &service{srv: serve.New(serve.Config{}), done: make(chan struct{})}
	s.hs = &http.Server{Handler: s.srv}
	go func() {
		defer close(s.done)
		_ = s.hs.Serve(ln) // returns ErrServerClosed on stop
	}()
	s.tr = &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}
	s.cl = client.NewWithHTTPClient("http://"+ln.Addr().String(), &http.Client{Transport: s.tr})
	return s, nil
}

// stop shuts the listener, the models' workers and the client's connections,
// and returns once the serving goroutine has ended.
func (s *service) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.hs.Shutdown(ctx) // a timeout only means open connections were cut
	s.srv.Close()
	s.tr.CloseIdleConnections()
	<-s.done
}

func wirePoints(pts []geom.Point) []client.Point {
	out := make([]client.Point, len(pts))
	for i, p := range pts {
		out[i] = client.Point{X: p.X, Y: p.Y}
	}
	return out
}

// ingestRequest is the CreateModel body for a dataset under the served
// configuration, with the fixed θ.
func (c *runCtx) ingestRequest(name string, pts []client.Point, z []float64) client.CreateModelRequest {
	return client.CreateModelRequest{
		Name: name, Points: pts, Z: z,
		Theta:  &client.Theta{Variance: thetaServe.Variance, Range: thetaServe.Range, Smoothness: thetaServe.Smoothness},
		Config: client.ModelConfig{Mode: "full-tile", TileSize: c.sz.FitNB, Workers: c.procs},
	}
}

// ingester creates a fresh model <prefix>-k every period and deletes its
// predecessor, so writes run beside the reads for as long as it lives. One
// ingester lives for one load phase: started with the phase, its k-th ingest
// is due at (u+k) periods for a seeded u in [¼, ¾), so every whole period of
// the phase (a cycle) holds exactly one ingest.
type ingester struct {
	stopc chan struct{}
	done  chan struct{}
	lat   []float64 // seconds per CreateModel round trip
	fail  int
}

func (c *runCtx) startIngester(svc *service, prefix string, pts []client.Point, z []float64) *ingester {
	in := &ingester{stopc: make(chan struct{}), done: make(chan struct{})}
	first, began := genIngestOffset(c.sz, c.seed), time.Now()
	go func() {
		defer close(in.done)
		ctx := context.Background()
		timer := time.NewTimer(first)
		defer timer.Stop()
		for k := 0; ; k++ {
			select {
			case <-in.stopc:
				if k > 0 {
					_ = svc.cl.DeleteModel(ctx, fmt.Sprintf("%s-%d", prefix, k-1)) // tidy-up; the server is stopped next
				}
				return
			case <-timer.C:
			}
			zk := make([]float64, len(z))
			for i, v := range z {
				zk[i] = v * (1 + 0.01*float64(k+1))
			}
			t0 := time.Now()
			_, err := svc.cl.CreateModel(ctx, c.ingestRequest(fmt.Sprintf("%s-%d", prefix, k), pts, zk))
			in.lat = append(in.lat, seconds(time.Since(t0)))
			if err != nil {
				in.fail++
			}
			if k > 0 {
				if err := svc.cl.DeleteModel(ctx, fmt.Sprintf("%s-%d", prefix, k-1)); err != nil {
					in.fail++
				}
			}
			timer.Reset(time.Until(began.Add(first + time.Duration(k+1)*c.sz.IngestEvery)))
		}
	}()
	return in
}

func (in *ingester) stop() {
	close(in.stopc)
	<-in.done
}

// oracle holds the direct-Session answer to every distinct batch a schedule
// can ask for, per request class: the served numbers must equal them bit for
// bit.
type oracle struct {
	mean map[int][]float64
	vari map[int]core.Prediction
}

// runServe is serve_mixed.
func runServe(c *runCtx) error {
	cfg := core.Config{Mode: core.FullTile, TileSize: c.sz.FitNB, Workers: c.procs}
	c.configs["model"] = cfg

	// Set-up is dataset, server start and first ingest. The first one's server
	// is the one measured; each stretch of direct rounds pays one more on a
	// server of its own, so the samples spread over the run.
	var setups []float64
	setUp := func() (*core.Synthetic, *service, error) {
		var (
			syn *core.Synthetic
			svc *service
			err error
		)
		run := c.rec.newRun()
		d := c.rec.timed(nil, run, "setup", func(sp *span) {
			c.rec.timed(sp, run, "core.GenerateSynthetic", func(*span) { syn, err = genDataset(c.sz.FitN, c.sz.FitTest, c.seed) })
			if err != nil {
				return
			}
			if svc, err = startService(c.procs); err != nil {
				return
			}
			c.rec.timed(sp, run, "client.CreateModel(a)", func(*span) {
				_, err = svc.cl.CreateModel(context.Background(), c.ingestRequest("a", wirePoints(syn.Train.Points), syn.Train.Z))
			})
			err = c.try("first ingest", err)
		})
		if err != nil && svc != nil {
			svc.stop()
		}
		setups = append(setups, seconds(d))
		return syn, svc, err
	}
	syn, svc, err := setUp()
	if err != nil {
		return err
	}
	pts := wirePoints(syn.Train.Points)
	defer svc.stop()
	digestDataset(&c.inputs, syn)
	pool := genPool(c.sz.Pool, c.seed)
	c.inputs.points(pool)
	wirePool := wirePoints(pool)

	// The direct Session: oracle answers, and the compute floor of serving.
	direct, err := core.NewSession(syn.Train, cfg)
	if err != nil {
		return err
	}
	// Direct evaluations and predicts in stretches — before, between and after
	// the load phases — so one disturbed stretch cannot hold them all. Each
	// predict follows an evaluation, which retires the cached factor, so every
	// predict_s sample pays its factorization.
	var (
		evals, preds []float64
		lik          core.LikResult
		pred         core.Prediction
	)
	directRounds := func(n int) error {
		for i := 0; i < n; i++ {
			var err error
			te := c.rec.timed(nil, 0, "core.LogLikelihood(direct)", func(*span) { lik, err = direct.LogLikelihood(thetaServe) })
			if c.try("direct evaluation", err) != nil {
				return err
			}
			tp := c.rec.timed(nil, 0, "core.PredictWithVariance(direct)", func(*span) {
				pred, err = direct.PredictWithVariance(syn.TestPoints, thetaServe)
			})
			if c.try("direct predict", err) != nil {
				return err
			}
			evals, preds = append(evals, seconds(te)), append(preds, seconds(tp))
		}
		return nil
	}
	if err := directRounds(1 + c.sz.DirectRounds); err != nil {
		return err
	}
	evals, preds = evals[1:], preds[1:] // the first round is cold
	// stretch is what separates two load phases: direct rounds, and on the
	// untraced pass one more set-up.
	stretch := func() error {
		if err := directRounds(c.sz.DirectRounds); err != nil {
			return err
		}
		if c.traced {
			return nil
		}
		_, extra, err := setUp()
		if err != nil {
			return err
		}
		extra.stop()
		return nil
	}
	want, err := c.exactLoglik(syn.Train, thetaServe)
	if err != nil {
		return err
	}
	c.checkLoglik(lik.Value, want)
	orc, floorMeanUS, floorVarMS, err := c.buildOracle(direct, pool)
	if err != nil {
		return err
	}

	var mismatches atomic.Int64
	do := func(ctx context.Context, q request) outcome {
		blen := c.sz.MeanBatch
		if q.Var {
			blen = c.sz.VarBatch
		}
		resp, err := svc.cl.Predict(ctx, "a", wirePool[q.Lo:q.Lo+blen], q.Var)
		if err != nil {
			var apiErr *client.APIError
			if errors.As(err, &apiErr) && apiErr.IsOverload() {
				return reqShed
			}
			return reqFailed
		}
		if !orc.matches(q, resp) {
			mismatches.Add(1)
		}
		return reqOK
	}

	// Load phases, each a whole number of ingest cycles with an ingester
	// running beside it. The server's compute stays bounded by Workers = P;
	// the load generator gets one scheduler slot of its own for the phases,
	// as a client process would have. Without it a factorization's
	// compute-bound tasks hold every slot for up to a preemption quantum and
	// the dispatcher releases requests tens of milliseconds late.
	loadProcs := c.procs + 1
	defer goruntime.GOMAXPROCS(c.procs)
	ctx := context.Background()
	runs := obs.GetCounter("core.factor.runs")
	var phaseRuns int64 // factorizations while a load phase ran
	var ingestLat []float64
	ingestFail := 0
	withIngests := func(name string, load func()) {
		runs0 := runs.Value()
		in := c.startIngester(svc, "b"+name, pts, syn.Train.Z)
		load()
		in.stop()
		phaseRuns += runs.Value() - runs0
		ingestLat = append(ingestLat, in.lat...)
		ingestFail += in.fail
	}
	cycles := func(share float64, atLeast time.Duration) time.Duration {
		n := max(int(math.Round(float64(c.budget(share))/float64(c.sz.IngestEvery))), 1)
		for time.Duration(n)*c.sz.IngestEvery < atLeast {
			n++
		}
		return time.Duration(n) * c.sz.IngestEvery
	}
	// The untraced pass offers the middle rate in four short phases; the
	// traced pass offers each rate once, long enough for its tail percentile,
	// and then runs the closed loop. A stretch separates the phases.
	plan := []float64{c.sz.Rates[1], c.sz.Rates[1], c.sz.Rates[1], c.sz.Rates[1]}
	share := 0.17
	if c.traced {
		plan, share = c.sz.Rates[:], 0.34
	}
	open := map[float64]*loadResult{}
	var serverP50 float64
	for phase, rate := range plan {
		var atLeast time.Duration
		if c.traced {
			atLeast = time.Duration(float64(c.sz.TailSamples) / rate * float64(time.Second))
		}
		dur := cycles(share, atLeast)
		sched := genSchedule(c.sz, c.seed, phase, rate, dur)
		c.inputs.requests(sched)
		before, err := svc.cl.Metrics(ctx)
		if err != nil {
			return err
		}
		name := fmt.Sprintf("open-%g-%d", rate, phase)
		var res loadResult
		goruntime.GOMAXPROCS(loadProcs)
		withIngests(name, func() {
			sp := c.rec.start(nil, c.rec.newRun(), fmt.Sprintf("open loop %g req/s", rate))
			res = runOpenLoop(ctx, sched, dur, do)
			sp.end()
		})
		goruntime.GOMAXPROCS(c.procs)
		after, err := svc.cl.Metrics(ctx)
		if err != nil {
			return err
		}
		c.bookPhase(name, res)
		if open[rate] == nil {
			open[rate] = &loadResult{}
		}
		open[rate].extend(res, dur)
		if rate == c.sz.Rates[1] {
			h := after.Obs.Sub(before.Obs).Histograms["serve.http.predict.ns"]
			serverP50 = float64(h.Quantile(0.5)) / 1e6
		}
		if err := stretch(); err != nil {
			return err
		}
	}
	c.inputs.f64(float64(genIngestOffset(c.sz, c.seed)))
	if c.traced {
		closedReqs := genSchedule(c.sz, c.seed, len(plan), 1000, 4*time.Second)
		c.inputs.requests(closedReqs)
		var closed loadResult
		goruntime.GOMAXPROCS(loadProcs)
		withIngests("closed", func() {
			sp := c.rec.start(nil, c.rec.newRun(), "closed loop")
			closed = runClosedLoop(ctx, closedReqs, c.procs, cycles(0.2, 0), do)
			sp.end()
		})
		goruntime.GOMAXPROCS(c.procs)
		c.bookPhase("closed", closed)
		c.set("sustained_rps", closed.windowRate(time.Second))
		c.set("serve.closed_mean_rps", float64(closed.OK)/closed.Elapsed.Seconds())
	}
	ingests := len(ingestLat)
	c.op(ingests, ingestFail)
	c.phases = append(c.phases, phaseCount{Phase: "ingest", Sent: ingests, OK: ingests - ingestFail, Failed: ingestFail})

	c.check("every served value bitwise equal to the direct Session", mismatches.Load() == 0, "%d mismatching replies", mismatches.Load())
	c.check("one factorization per ingest, none per predict", phaseRuns == int64(ingests),
		"%d factorizations over %d ingests", phaseRuns, ingests)
	c.check("ingests ran beside the predicts", ingests >= 1 && ingestFail == 0, "%d ingests, %d failed", ingests, ingestFail)

	main := open[c.sz.Rates[1]]
	c.set("setup_s", best(setups))
	c.set("eval_s", best(evals))
	c.set("predict_s", best(preds))
	c.set("factor_mb", mib(lik.Bytes))
	c.set("predict_p50_ms", main.cycleBest(c.sz.IngestEvery, 50))
	c.set("predict_p99_ms", main.cycleTail(c.sz.IngestEvery, 99))
	c.set("ingest_s", median(ingestLat))
	c.note("%d direct rounds: evaluation best %.4g s, median %.4g s; prediction best %.4g s, median %.4g s; %d set-ups",
		len(evals), best(evals), median(evals), best(preds), median(preds), len(setups))
	c.set("pred_mse", core.MSE(pred.Mean, syn.TestZ))
	c.checkPrediction(core.MSE(pred.Mean, syn.TestZ), syn.TestZ)
	c.set("failed_frac", float64(c.failed)/float64(max(c.attempted, 1)))

	var sent, ok, shed, failed int
	for _, ph := range c.phases {
		if ph.Phase != "ingest" {
			sent, ok, shed, failed = sent+ph.Sent, ok+ph.OK, shed+ph.Shed, failed+ph.Failed
		}
	}
	c.set("serve.sent", float64(sent))
	c.set("serve.ok", float64(ok))
	c.set("serve.shed", float64(shed))
	c.set("serve.failed", float64(failed))
	meanLat, varLat := main.classLat(false), main.classLat(true)
	c.set("serve.mean_p50_ms", median(meanLat))
	c.set("serve.mean_p99_ms", p99(meanLat))
	c.set("serve.p99_ms.whole", p99(main.LatMS))
	c.set("serve.var_p50_ms", median(varLat))
	c.set("serve.var_p99_ms", p99(varLat))
	c.set("serve.backlog_end", float64(main.Backlog))
	c.set("serve.gen_lag_p99_ms", p99(main.LagMS))
	c.set("serve.server_p50_ms", serverP50)
	c.set("serve.direct_mean_us", floorMeanUS)
	c.set("serve.direct_var_ms", floorVarMS)
	c.set("serve.overhead_ms", median(meanLat)-floorMeanUS/1000)
	c.set("core.predict_cached_us", floorMeanUS)
	c.note("generator lateness: p50 %.3f ms, p99 %.3f ms (charged to the latencies, which run from due time)", median(main.LagMS), p99(main.LagMS))
	tail := summarise(main.LatMS)
	c.note("%g req/s open loop: %d requests, p50 %.2f ms, p%g %.2f ms (limit %d ms), backlog at end %d; %d ingests, median %.3f s",
		c.sz.Rates[1], tail.N, tail.Median, tail.TailP, tail.Tail, latencyLimitMS, main.Backlog, ingests, median(ingestLat))

	if c.traced {
		if r, ok := open[c.sz.Rates[0]]; ok {
			c.set("serve.p99_ms.r80", r.cycleTail(c.sz.IngestEvery, 99))
		}
		if r, ok := open[c.sz.Rates[2]]; ok {
			c.set("serve.p99_ms.r240", r.cycleTail(c.sz.IngestEvery, 99))
		}
		best := 0.0
		for _, rate := range plan {
			if r := open[rate]; r.cycleTail(c.sz.IngestEvery, 99) <= latencyLimitMS && r.Backlog <= c.procs {
				best = max(best, rate)
			}
		}
		c.note("highest offered rate meeting p99 <= %d ms without a backlog: %g req/s", latencyLimitMS, best)
		root := c.rec.start(nil, c.rec.newRun(), "layers")
		defer root.end()
		if err := c.commonLayers(root, syn.Train); err != nil {
			return err
		}
		c.traceOverhead(direct, thetaServe, pool)
		c.procLayers()
	}
	return nil
}

// bookPhase records a load phase's request accounting.
func (c *runCtx) bookPhase(name string, r loadResult) {
	c.phases = append(c.phases, phaseCount{Phase: name, Sent: r.Sent, OK: r.OK, Shed: r.Shed, Failed: r.Failed})
	c.op(r.Sent, r.Shed+r.Failed)
	if r.Shed+r.Failed > 0 {
		c.check("phase "+name+" served every request", false, "%d shed, %d failed of %d", r.Shed, r.Failed, r.Sent)
	}
}

// buildOracle answers every distinct batch of either class on the direct
// Session, timing each call: the medians are the compute floor under the
// served latencies.
func (c *runCtx) buildOracle(s *core.Session, pool []geom.Point) (*oracle, float64, float64, error) {
	o := &oracle{mean: map[int][]float64{}, vari: map[int]core.Prediction{}}
	var meanUS, varMS []float64
	for lo := 0; lo+c.sz.VarBatch <= len(pool); lo += c.sz.VarBatch {
		t0 := time.Now()
		p, err := s.PredictWithVariance(pool[lo:lo+c.sz.VarBatch], thetaServe)
		varMS = append(varMS, millis(time.Since(t0)))
		if c.try("oracle predict", err) != nil {
			return nil, 0, 0, err
		}
		o.vari[lo] = p
	}
	for lo := 0; lo+c.sz.MeanBatch <= len(pool); lo += c.sz.MeanBatch {
		t0 := time.Now()
		m, err := s.Predict(pool[lo:lo+c.sz.MeanBatch], thetaServe)
		meanUS = append(meanUS, micros(time.Since(t0)))
		if c.try("oracle predict", err) != nil {
			return nil, 0, 0, err
		}
		o.mean[lo] = m
	}
	// The first call of each class pays the factorization or the solve.
	return o, median(meanUS[1:]), median(varMS[1:]), nil
}

// matches reports whether a reply equals the oracle's answer bit for bit.
func (o *oracle) matches(q request, resp client.PredictResponse) bool {
	if q.Var {
		w := o.vari[q.Lo]
		return slices.Equal(resp.Mean, w.Mean) && slices.Equal(resp.Variance, w.Variance)
	}
	return slices.Equal(resp.Mean, o.mean[q.Lo])
}
