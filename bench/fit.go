package main

import (
	"math"
	goruntime "runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/cov"
	"repro/internal/geom"
	"repro/internal/obs"
)

// fitStart is where every fit starts: off the generating θ, and at a
// smoothness that has no closed form, so each evaluation pays the general
// Matérn/Bessel generation a real fit pays. thetaProbe is the same point with
// unit variance: the warm-up evaluation and every timed evaluation and
// prediction of the fit workloads use it, because the cost of a general-ν
// kernel entry depends on θ and θ̂ moves with the seed. One θ keeps the times
// comparable across seeds; the prediction at θ̂ itself is made on the traced
// pass, for pred_mse.
var (
	fitStart   = cov.Params{Range: 0.08, Smoothness: 0.6}
	thetaProbe = cov.Params{Variance: 1, Range: fitStart.Range, Smoothness: fitStart.Smoothness}
)

// tlrAccuracy and tlrCompressor are the TLR settings of every workload.
const (
	tlrAccuracy   = 1e-7
	tlrCompressor = "rsvd"
)

func (c *runCtx) fitConfig(tlrMode bool) core.Config {
	cfg := core.Config{Mode: core.FullTile, TileSize: c.sz.FitNB, Workers: c.procs}
	if tlrMode {
		cfg.Mode, cfg.Accuracy, cfg.CompressorName = core.TLR, tlrAccuracy, tlrCompressor
	}
	return cfg
}

// setUp generates the dataset, builds a Session and pays the cold first
// evaluation (task-graph build and allocation): everything paid once.
func (c *runCtx) setUp(run int, n, nTest int, cfg core.Config, warm cov.Params) (*core.Synthetic, *core.Session, time.Duration, time.Duration, error) {
	var (
		syn   *core.Synthetic
		s     *core.Session
		first time.Duration
		err   error
	)
	d := c.rec.timed(nil, run, "setup", func(sp *span) {
		c.rec.timed(sp, run, "core.GenerateSynthetic", func(*span) {
			syn, err = genDataset(n, nTest, c.seed)
		})
		if err != nil {
			return
		}
		c.rec.timed(sp, run, "core.NewSession", func(*span) {
			s, err = core.NewSession(syn.Train, cfg)
		})
		if err != nil {
			return
		}
		first = c.rec.timed(sp, run, "core.LogLikelihood(cold)", func(*span) {
			_, err = s.LogLikelihood(warm)
		})
		err = c.try("warm-up evaluation", err)
	})
	return syn, s, d, first, err
}

// rounds is what the measuring time of a compute workload holds: the same
// three operations over and over, so that every metric has samples from every
// stretch of the run and one disturbed stretch cannot hold all of any.
type rounds struct {
	evals, preds []float64 // seconds per LogLikelihood, per PredictWithVariance
	lik          core.LikResult
	pred         core.Prediction
}

// measure runs rounds on s: on the untraced pass until the run's measuring
// time is up and at least sz.MinRounds of them, on the traced pass until the
// direct predicts number minDirectPredicts. A round is one evaluation at
// theta, one PredictWithVariance of the held-out points at theta — it follows
// an evaluation, which retired the cached factor, so it pays its factorization
// — and one block of small direct predicts against the solve that prediction
// cached. between runs after every round: the workload's further set-ups go
// there, so that they too spread over the run.
func (c *runCtx) measure(s *core.Session, theta cov.Params, test, pool []geom.Point, between func(round int) error) (rounds, error) {
	var (
		r   rounds
		err error
	)
	var round time.Duration // how long the last round took
	more := func(n int) bool {
		if c.traced {
			return c.directCount() < minDirectPredicts
		}
		return n < c.sz.MinRounds || time.Since(c.started)+round < c.budget(1)
	}
	for n := 0; more(n); n++ {
		began := time.Now()
		run := c.rec.newRun()
		settle()
		d := c.rec.timed(nil, run, "core.LogLikelihood", func(*span) { r.lik, err = s.LogLikelihood(theta) })
		if c.try("evaluation", err) != nil {
			return r, err
		}
		r.evals = append(r.evals, seconds(d))
		settle()
		d = c.rec.timed(nil, run, "core.PredictWithVariance", func(*span) { r.pred, err = s.PredictWithVariance(test, theta) })
		if c.try("predict", err) != nil {
			return r, err
		}
		r.preds = append(r.preds, seconds(d))
		if err := c.directPredicts(s, theta, pool, n); err != nil {
			return r, err
		}
		if err := between(n); err != nil {
			return r, err
		}
		round = time.Since(began)
	}
	c.set("eval_s", best(r.evals))
	c.set("predict_s", best(r.preds))
	c.set("factor_mb", mib(r.lik.Bytes))
	c.reportDirect()
	c.note("%d rounds: evaluation best %.4g s, median %.4g s; prediction best %.4g s, median %.4g s",
		len(r.evals), best(r.evals), median(r.evals), best(r.preds), median(r.preds))
	return r, nil
}

// runFit is fit_dense and fit_tlr: the fit's dataset and configuration, then
// rounds of the fit's unit operations (one evaluation, one prediction of the
// held-out points) at the fit's start point. The fit itself — a budgeted
// Session.Fit to θ̂ and the prediction at θ̂ — runs on the traced pass: its time
// is evaluations × eval_s, and in a run of this length it would leave a TLR
// fit two samples of everything else.
func runFit(c *runCtx, tlrMode bool) error {
	cfg := c.fitConfig(tlrMode)
	c.configs["fit"] = cfg
	pool := genPool(c.sz.Pool, c.seed)
	c.inputs.points(pool)

	// Set-up is paid once for the Session that is measured, and again after
	// every second round on a Session of its own, so the samples spread over
	// the run.
	var setups []float64
	syn, sess, d, first, err := c.setUp(c.rec.newRun(), c.sz.FitN, c.sz.FitTest, cfg, thetaProbe)
	if err != nil {
		return err
	}
	defer sess.Close()
	setups = append(setups, seconds(d))
	digestDataset(&c.inputs, syn)

	want, err := c.exactLoglik(syn.Train, thetaProbe)
	if err != nil {
		return err
	}
	r, err := c.measure(sess, thetaProbe, syn.TestPoints, pool, func(round int) error {
		if c.traced || round%2 == 1 {
			return nil
		}
		_, extra, d, _, err := c.setUp(c.rec.newRun(), c.sz.FitN, c.sz.FitTest, cfg, thetaProbe)
		if err != nil {
			return err
		}
		extra.Close()
		setups = append(setups, seconds(d))
		return nil
	})
	if err != nil {
		return err
	}
	c.set("setup_s", best(setups))
	c.set("core.first_eval_s", seconds(first))
	c.note("%d set-ups: best %.4g s, median %.4g s", len(setups), best(setups), median(setups))
	c.checkLoglik(r.lik.Value, want)
	c.checkPrediction(core.MSE(r.pred.Mean, syn.TestZ), syn.TestZ)
	c.set("failed_frac", float64(c.failed)/float64(max(c.attempted, 1)))
	if c.traced {
		return c.fitLayers(tlrMode, syn, sess, cfg)
	}
	return nil
}

// tracedFit is the workload's namesake, on the traced pass: a budgeted
// Session.Fit from fitStart, then the paper's prediction at θ̂.
func (c *runCtx) tracedFit(root *span, syn *core.Synthetic, sess *core.Session) (cov.Params, error) {
	var (
		res core.FitResult
		err error
	)
	opts := core.FitOptions{Profiled: true, MaxEvals: c.sz.FitEvals, Start: fitStart}
	d := c.probe(root, "core.Session.Fit", func() { res, err = sess.Fit(opts) })
	if c.try("fit", err) != nil {
		return cov.Params{}, err
	}
	c.op(res.Evals, 0)
	var pred core.Prediction
	c.probe(root, "core.PredictWithVariance(θ̂)", func() { pred, err = sess.PredictWithVariance(syn.TestPoints, res.Theta) })
	if c.try("predict at θ̂", err) != nil {
		return cov.Params{}, err
	}
	c.set("fit_s", seconds(d))
	c.set("optimize.evals", float64(res.Evals))
	c.set("optimize.converged", b2f(res.Converged))
	c.set("core.eval_mean_s", seconds(d)/float64(res.Evals))
	c.set("pred_mse", core.MSE(pred.Mean, syn.TestZ))
	c.checkPrediction(core.MSE(pred.Mean, syn.TestZ), syn.TestZ)
	c.note("θ̂ = %v after %d evaluations (budget %d)", res.Theta, res.Evals, opts.MaxEvals)
	return res.Theta, nil
}

// checkPrediction requires the held-out predictions to beat the trivial
// predictor (the field's zero mean): kriging at any sensible θ explains most
// of the held-out variance at full size (MSE about a quarter of the trivial
// one) and still some of it on the sparse smoke inputs.
func (c *runCtx) checkPrediction(mse float64, truth []float64) {
	var ss float64
	for _, z := range truth {
		ss += z * z
	}
	trivial := ss / float64(len(truth))
	c.check("held-out MSE below the trivial predictor's", mse < trivial, "%.4g vs %.4g", mse, trivial)
}

// exactLoglik evaluates θ on an untimed exact (FullBlock) Session: the
// reference the workload's log-likelihood is gated against.
func (c *runCtx) exactLoglik(p *core.Problem, theta cov.Params) (float64, error) {
	ref, err := core.NewSession(p, core.Config{Mode: core.FullBlock, Workers: c.procs})
	if err != nil {
		return 0, err
	}
	defer ref.Close()
	want, err := ref.LogLikelihood(theta)
	return want.Value, err
}

// checkLoglik gates and reports the log-likelihood's relative error against
// the exact reference.
func (c *runCtx) checkLoglik(got, want float64) {
	rel := math.Abs(got-want) / math.Abs(want)
	c.set("loglik_rel_err", rel)
	c.check("loglik_rel_err <= 1e-6", rel <= 1e-6, "%.3g (ℓ %.10g, exact %.10g)", rel, got, want)
}

// minDirectPredicts is how many direct predicts the reported percentiles rest
// on, which gives the 99th ten samples beyond it. A block of them lasts at
// least directBlockTime, so a cheap predict is not judged on a few
// milliseconds of the run.
const (
	minDirectPredicts = 1100
	directBlockTime   = 250 * time.Millisecond
)

// settle collects garbage left by earlier phases, so a timed section starts
// from the same heap state whatever ran before it.
func settle() { goruntime.GC() }

// directPredicts runs one block of the small-request part of a compute
// workload: one caller asking a fitted Session for MeanBatch-point mean
// predictions at theta, sz.DirectBlock of them or more back to back. The solve at
// theta is cached by the prediction before it; a first, untimed call makes
// sure. No timed call may factorize. block numbers the run's blocks, so each
// asks for its own batches.
func (c *runCtx) directPredicts(s *core.Session, theta cov.Params, pool []geom.Point, block int) error {
	batch := func(i int) []geom.Point {
		lo := (i * c.sz.MeanBatch) % (len(pool) - c.sz.MeanBatch + 1)
		return pool[lo : lo+c.sz.MeanBatch]
	}
	first := block * c.sz.DirectBlock
	if _, err := s.Predict(batch(first), theta); c.try("predict", err) != nil {
		return err
	}
	settle()
	runs := obs.GetCounter("core.factor.runs")
	runs0 := runs.Value()
	lat := make([]float64, 0, c.sz.DirectBlock)
	sp := c.rec.start(nil, c.rec.newRun(), "direct predicts")
	began := time.Now()
	for i := 1; i <= c.sz.DirectBlock || time.Since(began) < directBlockTime; i++ {
		t0 := time.Now()
		_, err := s.Predict(batch(first+i), theta)
		lat = append(lat, millis(time.Since(t0)))
		if c.try("predict", err) != nil {
			return err
		}
	}
	sp.end()
	c.direct = append(c.direct, lat)
	if n := runs.Value() - runs0; n != 0 {
		c.check("no factorization while predicting", false, "%d factorizations over %d predicts", n, len(lat))
	}
	return nil
}

// directCount is how many direct predicts the run has timed so far.
func (c *runCtx) directCount() int {
	n := 0
	for _, b := range c.direct {
		n += len(b)
	}
	return n
}

// reportDirect reports the direct predicts from the quietest blocks of the
// run, those with the lowest medians, as many as hold minDirectPredicts calls:
// their median, their 99th percentile and their rate (one caller back to
// back, so calls over time). Interference only ever slows a block, so the
// quietest ones are the steadiest estimate of what a caller of a fitted
// Session sees.
func (c *runCtx) reportDirect() {
	blocks := append([][]float64(nil), c.direct...)
	sort.Slice(blocks, func(i, j int) bool { return median(blocks[i]) < median(blocks[j]) })
	var quiet, all []float64
	for _, b := range blocks {
		all = append(all, b...)
		if len(quiet) < minDirectPredicts {
			quiet = append(quiet, b...)
		}
	}
	var ms float64
	for _, v := range quiet {
		ms += v
	}
	c.set("predict_p50_ms", median(quiet))
	c.set("predict_p99_ms", p99(quiet))
	c.set("sustained_rps", 1000*float64(len(quiet))/ms)
	c.set("core.predict_cached_us", 1000*median(all))
	c.check("no factorization while predicting", true, "%d direct predicts in %d blocks", len(all), len(blocks))
	c.note("direct predicts: %d in %d blocks, quietest %d reported; whole-sample p50 %.4g ms, p99 %.4g ms", len(all), len(blocks), len(quiet), median(all), p99(all))
}

func mib(b int64) float64 { return float64(b) / (1 << 20) }

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	return math.Abs(a-b) / math.Max(math.Abs(a), math.Abs(b))
}

// expTheta is θ with the smoothness moved to ½, the closed-form kernel.
func expTheta(t cov.Params) cov.Params {
	t.Smoothness = 0.5
	return t
}

// fitLayers is the traced pass of a fit workload: the fit, then one evaluation
// at θ̂ taken apart layer by layer on the workload's own problem.
func (c *runCtx) fitLayers(tlrMode bool, syn *core.Synthetic, sess *core.Session, cfg core.Config) error {
	root := c.rec.start(nil, c.rec.newRun(), "layers")
	defer root.end()
	theta, err := c.tracedFit(root, syn, sess)
	if err != nil {
		return err
	}
	p, nb := syn.Train, c.sz.FitNB
	if err := c.commonLayers(root, p); err != nil {
		return err
	}
	whole, lik, err := c.evalCounts(root, sess, theta)
	if err != nil {
		return err
	}
	if err := c.checkOneWorker(root, p, cfg, theta, lik); err != nil {
		return err
	}
	bessel := c.covProbe(root, p, theta, nb, "bessel")
	c.covProbe(root, p, expTheta(theta), nb, "exp")
	c.laProbe(root, nb)
	tp, err := c.tileProbe(root, p, theta, nb, !tlrMode)
	if err != nil {
		return err
	}
	if tlrMode {
		lp, err := c.tlrProbe(root, p, theta, nb, true)
		if err != nil {
			return err
		}
		c.set("tlr.vs_tile_ratio", seconds(lp.genChol)/seconds(tp.genChol))
		c.set("core.parts_over_whole", seconds(lp.assemble+lp.factor+lp.forward+lp.logdet)/seconds(whole))
	} else {
		c.set("core.parts_over_whole", seconds(bessel+tp.factor+tp.forward+tp.logdet)/seconds(whole))
	}
	c.traceOverhead(sess, thetaProbe, genPool(c.sz.Pool, c.seed))
	c.procLayers()
	return nil
}

// checkOneWorker evaluates once on a one-worker Session and requires the
// log-likelihood to equal the P-worker one bit for bit.
func (c *runCtx) checkOneWorker(root *span, p *core.Problem, cfg core.Config, theta cov.Params, want core.LikResult) error {
	cfg.Workers = 1
	s1, err := core.NewSession(p, cfg)
	if err != nil {
		return err
	}
	defer s1.Close()
	var got core.LikResult
	c.probe(root, "core.LogLikelihood(Workers=1)", func() { got, err = s1.LogLikelihood(theta) })
	if c.try("one-worker evaluation", err) != nil {
		return err
	}
	c.check("Workers=1 bitwise equal to Workers=P", got.Value == want.Value, "ℓ %v vs %v", got.Value, want.Value)
	return nil
}
