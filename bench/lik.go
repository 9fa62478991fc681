package main

import (
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/cov"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/tlr"
)

// likTheta is point i of the path every deployment evaluates: the closed-form
// kernel (ν = ½, no Bessel work) with the range stepping the way an
// optimizer's iterates do.
func likTheta(i int) cov.Params {
	return cov.Params{Variance: 1, Range: 0.1 * (1 + 0.02*float64(i)), Smoothness: 0.5}
}

// deployment is one way of running the same TLR kernels.
type deployment struct {
	name    string
	cfg     core.Config
	sess    *core.Session
	setup   time.Duration
	evals   []float64 // seconds, path points 1..k
	results []core.LikResult
}

// open builds the deployment's Session and pays its cold evaluation of path
// point 0.
func (c *runCtx) open(d *deployment, p *core.Problem) (core.LikResult, error) {
	var (
		lik core.LikResult
		err error
	)
	run := c.rec.newRun()
	d.setup = c.rec.timed(nil, run, "setup "+d.name, func(sp *span) {
		c.rec.timed(sp, run, "core.NewSession", func(*span) { d.sess, err = core.NewSession(p, d.cfg) })
		if err != nil {
			return
		}
		c.rec.timed(sp, run, "core.LogLikelihood(cold)", func(*span) { lik, err = d.sess.LogLikelihood(likTheta(0)) })
		err = c.try(d.name+" warm-up evaluation", err)
	})
	return lik, err
}

// walk times path points 1..k on the deployment; results[i] is point i.
func (c *runCtx) walk(d *deployment, k int) error {
	run := c.rec.newRun()
	for i := 1; i <= k; i++ {
		var (
			lik core.LikResult
			err error
		)
		t := c.rec.timed(nil, run, "core.LogLikelihood "+d.name, func(*span) { lik, err = d.sess.LogLikelihood(likTheta(i)) })
		if c.try(d.name+" evaluation", err) != nil {
			return err
		}
		d.evals = append(d.evals, seconds(t))
		d.results = append(d.results, lik)
	}
	return nil
}

// runLik is lik_scale: one θ-path through three deployments of the TLR
// backend — in core, out of core under a quarter of the in-core bytes, and
// distributed over P ranks — each required to agree with the first.
func runLik(c *runCtx) error {
	var (
		syn *core.Synthetic
		err error
	)
	gen := c.rec.timed(nil, c.rec.newRun(), "core.GenerateSynthetic", func(*span) {
		syn, err = genDataset(c.sz.LikN, c.sz.FitTest, c.seed)
	})
	if err != nil {
		return err
	}
	digestDataset(&c.inputs, syn)
	p := syn.Train

	base := core.Config{Mode: core.TLR, TileSize: c.sz.LikNB, Accuracy: tlrAccuracy, CompressorName: tlrCompressor, Workers: c.procs}
	inCore := &deployment{name: "in-core", cfg: base}
	warm, err := c.open(inCore, p)
	if err != nil {
		return err
	}

	spill := filepath.Join(c.outDir, "spill")
	if err := os.MkdirAll(spill, 0o755); err != nil {
		return err
	}
	ooc := &deployment{name: "out-of-core", cfg: base}
	ooc.cfg.MemBudget = max(warm.Bytes/4, tlr.MinMemBudget(c.sz.LikNB, c.procs))
	ooc.cfg.SpillDir = spill
	dist := &deployment{name: "distributed", cfg: base}
	dist.cfg.Ranks, dist.cfg.Workers = c.procs, 1
	deps := []*deployment{inCore, ooc, dist}
	for _, d := range deps {
		c.configs[d.name] = d.cfg
	}
	defer func() {
		for _, d := range deps {
			if d.sess != nil {
				d.sess.Close()
			}
		}
	}()

	// Every deployment pays its cold evaluation of path point 0: set-up time,
	// and the agreement check of every run. The in-core one opens first and is
	// the one measured; the other two open one after each of the first two
	// measuring rounds, so the three set-ups spread over the run. The traced
	// pass then walks the path on all three.
	inCore.results = append(inCore.results, warm)
	pool := genPool(c.sz.Pool, c.seed)
	c.inputs.points(pool)
	thetaLast := likTheta(c.sz.LikEvals)
	want, err := c.exactLoglik(p, thetaLast)
	if err != nil {
		return err
	}
	next := 1 // the deployment to open next
	openNext := func(int) error {
		if next == len(deps) {
			return nil
		}
		d := deps[next]
		next++
		lik0, err := c.open(d, p)
		d.results = append(d.results, lik0)
		return err
	}
	r, err := c.measure(inCore.sess, thetaLast, syn.TestPoints, pool, openNext)
	for err == nil && next < len(deps) { // the traced pass may stop after one round
		err = openNext(0)
	}
	if err != nil {
		return err
	}
	c.checkLoglik(r.lik.Value, want)
	if c.traced {
		for _, d := range deps {
			if err := c.walk(d, c.sz.LikEvals); err != nil {
				return err
			}
		}
	}

	bitwiseDist := true
	for i := range ooc.results {
		a, b, d := inCore.results[i].Value, ooc.results[i].Value, dist.results[i].Value
		if b != a {
			c.check("out-of-core bitwise equal to in-core", false, "path point %d: %v vs %v", i, b, a)
		}
		if relDiff(d, a) > 1e-12 {
			c.check("distributed within 1e-12 of in-core", false, "path point %d: %v vs %v", i, d, a)
		}
		bitwiseDist = bitwiseDist && d == a
	}
	c.check("deployments agree", true, "%d path points; out-of-core bitwise, distributed within 1e-12 (bitwise=%v)", len(ooc.results), bitwiseDist)
	c.set("setup_s", seconds(gen)+median([]float64{seconds(inCore.setup), seconds(ooc.setup), seconds(dist.setup)}))
	c.set("core.first_eval_s", seconds(inCore.setup))
	c.set("pred_mse", core.MSE(r.pred.Mean, syn.TestZ))
	c.checkPrediction(core.MSE(r.pred.Mean, syn.TestZ), syn.TestZ)
	c.set("failed_frac", float64(c.failed)/float64(max(c.attempted, 1)))
	c.note("out-of-core budget %.1f MiB of %.1f; distributed over %d ranks", mib(ooc.cfg.MemBudget), mib(warm.Bytes), c.procs)
	if c.traced {
		c.set("eval_ooc_p50_s", median(ooc.evals))
		c.set("eval_dist_p50_s", median(dist.evals))
		c.set("store.overhead_ratio", median(ooc.evals)/median(inCore.evals))
		c.set("mpi.overhead_ratio", median(dist.evals)/median(inCore.evals))
		return c.likLayers(syn, inCore, ooc, dist)
	}
	return nil
}

// likLayers is the traced pass of lik_scale: one more evaluation on each
// deployment with the counters differenced around it, and the TLR layer
// taken apart at the last path point.
func (c *runCtx) likLayers(syn *core.Synthetic, inCore, ooc, dist *deployment) error {
	root := c.rec.start(nil, c.rec.newRun(), "layers")
	defer root.end()
	p, theta, nb := syn.Train, likTheta(c.sz.LikEvals), c.sz.LikNB
	if err := c.commonLayers(root, p); err != nil {
		return err
	}
	whole, lik, err := c.evalCounts(root, inCore.sess, theta)
	if err != nil {
		return err
	}
	if err := c.checkOneWorker(root, p, inCore.cfg, theta, lik); err != nil {
		return err
	}

	// tlr/store: the pin/evict/spill traffic of exactly one evaluation.
	pre := obs.Default().Snapshot()
	c.probe(root, "core.LogLikelihood out-of-core(counted)", func() { _, err = ooc.sess.LogLikelihood(theta) })
	if c.try("counted out-of-core evaluation", err) != nil {
		return err
	}
	diff := obs.Default().Snapshot().Sub(pre).Counters
	c.set("store.hit", float64(diff["tlr.store.hit"]))
	c.set("store.miss", float64(diff["tlr.store.miss"]))
	c.set("store.evict", float64(diff["tlr.store.evict"]))
	c.set("store.spill_mb", mib(diff["tlr.store.spill.bytes"]))
	if hw, _, ok := ooc.sess.StoreStats(); ok {
		c.set("store.high_water_mb", mib(hw))
		c.check("resident tiles within budget plus working set", hw <= ooc.cfg.MemBudget+tlr.MinMemBudget(nb, c.procs),
			"high water %.1f MiB, budget %.1f MiB", mib(hw), mib(ooc.cfg.MemBudget))
	}

	// mpi: messages and bytes of exactly one evaluation, summed over ranks.
	before := dist.sess.CommStats()
	c.probe(root, "core.LogLikelihood distributed(counted)", func() { _, err = dist.sess.LogLikelihood(theta) })
	if c.try("counted distributed evaluation", err) != nil {
		return err
	}
	var total mpi.CommStats
	lo, hi := int64(-1), int64(0)
	for r, after := range dist.sess.CommStats() {
		d := after.Sub(before[r])
		total.MsgsSent += d.MsgsSent
		total.BytesSent += d.BytesSent
		if lo < 0 || d.BytesSent < lo {
			lo = d.BytesSent
		}
		hi = max(hi, d.BytesSent)
	}
	c.set("mpi.msgs", float64(total.MsgsSent))
	c.set("mpi.bytes_mb", mib(total.BytesSent))
	if lo > 0 {
		c.set("mpi.rank_imbalance", float64(hi)/float64(lo))
	}
	if err := c.mpiProbe(root); err != nil {
		return err
	}

	c.covProbe(root, p, theta, nb, "exp")
	tp, err := c.tileProbe(root, p, theta, nb, false)
	if err != nil {
		return err
	}
	lp, err := c.tlrProbe(root, p, theta, nb, false)
	if err != nil {
		return err
	}
	c.set("tlr.vs_tile_ratio", seconds(lp.genChol)/seconds(tp.genChol))
	c.set("core.parts_over_whole", seconds(lp.assemble+lp.factor+lp.forward+lp.logdet)/seconds(whole))
	c.traceOverhead(inCore.sess, theta, genPool(c.sz.Pool, c.seed))
	c.procLayers()
	return nil
}
