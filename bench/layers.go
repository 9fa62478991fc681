package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	goruntime "runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/cov"
	"repro/internal/dataio"
	"repro/internal/geom"
	"repro/internal/la"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/optimize"
	"repro/internal/runtime"
	"repro/internal/tile"
	"repro/internal/tlr"
)

// The layer probes time calls into the public functions of single layers and
// difference the public counters around exactly one evaluation. They run on
// the traced pass only, each call inside a span of the benchmark's recorder.

// probe times f inside a span named after the layer call it wraps.
func (c *runCtx) probe(parent *span, name string, f func()) time.Duration {
	return c.rec.timed(parent, parent.runID(), name, func(*span) { f() })
}

func (s *span) runID() int {
	if s == nil {
		return 0
	}
	return s.Run
}

// commonLayers measures the layers every workload crosses on its way in
// (ordering, the CSV reader) and the process-wide context of every timing.
func (c *runCtx) commonLayers(root *span, p *core.Problem) error {
	pts, z := p.RestorePoints(p.Points), p.RestoreOrder(p.Z)
	c.set("geom.order_s", seconds(c.probe(root, "geom.Morton", func() {
		perm := geom.Morton.Permutation(pts)
		geom.ApplyPerm(pts, perm)
		geom.ApplyPermFloat(z, perm)
	})))
	var rtErr error
	c.set("dataio.read_csv_s", seconds(c.probe(root, "dataio.CSV round trip", func() {
		var buf bytes.Buffer
		if rtErr = dataio.WriteCSV(&buf, dataio.Records{Points: pts, Z: z}); rtErr != nil {
			return
		}
		var back dataio.Records
		if back, rtErr = dataio.ReadCSV(&buf); rtErr == nil && len(back.Z) != len(z) {
			rtErr = fmt.Errorf("csv round trip returned %d of %d rows", len(back.Z), len(z))
		}
	})))
	if rtErr != nil {
		return rtErr
	}
	c.set("optimize.nm_overhead_us", nmOverheadUS())
	return nil
}

// procLayers records the process-wide context; call it last.
func (c *runCtx) procLayers() {
	var ms goruntime.MemStats
	goruntime.ReadMemStats(&ms)
	c.set("proc.gc_pause_ms", float64(ms.PauseTotalNs)/1e6)
	c.set("proc.peak_rss_mb", peakRSSMiB())
}

// peakRSSMiB reads the process's resident high-water mark (VmHWM).
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// nmOverheadUS is Nelder–Mead's own time per evaluation on a free objective.
func nmOverheadUS() float64 {
	obj := func(x []float64) float64 {
		return (x[0]-0.3)*(x[0]-0.3) + (x[1]+0.2)*(x[1]+0.2)
	}
	t0 := time.Now()
	res, err := optimize.NelderMead(
		optimize.Problem{Objective: obj, Lower: []float64{-5, -5}, Upper: []float64{5, 5}},
		[]float64{2, 2}, optimize.Options{MaxEvals: 5000, TolX: 1e-300, TolF: 1e-300, Restarts: 50})
	if err != nil || res.Evals == 0 {
		return 0
	}
	return micros(time.Since(t0)) / float64(res.Evals)
}

// evalCounts differences the public counters over exactly one evaluation on
// s and returns that evaluation's wall time. The counts repeat exactly for a
// fixed seed.
func (c *runCtx) evalCounts(root *span, s *core.Session, theta cov.Params) (time.Duration, core.LikResult, error) {
	var (
		lik      core.LikResult
		err      error
		ms0, ms1 goruntime.MemStats
	)
	goruntime.ReadMemStats(&ms0)
	pre := obs.Default().Snapshot()
	d := c.probe(root, "core.LogLikelihood(counted)", func() { lik, err = s.LogLikelihood(theta) })
	diff := obs.Default().Snapshot().Sub(pre).Counters
	goruntime.ReadMemStats(&ms1)
	if c.try("counted evaluation", err) != nil {
		return 0, lik, err
	}
	for _, k := range []string{"gemm", "potrf", "trsm", "syrk", "svd", "qr"} {
		c.set("la."+k+".calls", float64(diff["la."+k+".calls"]))
	}
	c.set("runtime.tasks", float64(diff["runtime.tasks.completed"]))
	c.set("core.factor.runs", float64(diff["core.factor.runs"]))
	c.set("tlr.compress.calls", float64(diff["tlr.compress.calls"]))
	c.set("tlr.recompress.calls", float64(diff["tlr.recompress.calls"]))
	var hit, miss int64
	for name, v := range diff {
		if strings.HasPrefix(name, "core.cache.") {
			if strings.HasSuffix(name, ".hit") {
				hit += v
			} else if strings.HasSuffix(name, ".miss") {
				miss += v
			}
		}
	}
	c.set("core.cache.hit", float64(hit))
	c.set("core.cache.miss", float64(miss))
	c.set("core.alloc_mb_per_eval", float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20))
	c.set("tlr.mean_rank", lik.MeanRank)
	c.set("tlr.max_rank", float64(lik.MaxRank))
	return d, lik, nil
}

// fastest repeats prep (untimed) and kernel (timed) at least minReps times and
// for at least minTime, and returns the shortest kernel time: the kernel's
// cost with the least interference.
func fastest(minReps int, minTime time.Duration, prep, kernel func()) time.Duration {
	var best time.Duration
	for began, n := time.Now(), 0; n < minReps || time.Since(began) < minTime; n++ {
		prep()
		t0 := time.Now()
		kernel()
		if d := time.Since(t0); best == 0 || d < best {
			best = d
		}
	}
	return best
}

// covProbe times covariance generation into tiles at the given kernel, with
// the workload's worker count, and returns the fill time.
func (c *runCtx) covProbe(root *span, p *core.Problem, theta cov.Params, nb int, kind string) time.Duration {
	m := tile.NewSym(p.N(), nb)
	k := cov.NewKernel(theta)
	d := c.probe(root, "tile.FillKernelParallel("+kind+")", func() {
		tile.FillKernelParallel(m, k, p.Points, p.Metric, 1e-9*theta.Variance, c.procs)
	})
	entries := float64(m.Bytes() / 8)
	c.set("cov.entries", entries)
	c.set("cov.dcmg_"+kind+"_s", seconds(d))
	c.set("cov.ns_per_entry_"+kind, float64(d.Nanoseconds())/entries)
	return d
}

// laProbe measures the four tile kernels on nb×nb operands on one thread.
func (c *runCtx) laProbe(root *span, nb int) {
	fill := func(m *la.Mat, seed float64) {
		for i := range m.Data {
			m.Data[i] = math.Sin(seed + float64(i)*0.37)
		}
	}
	a, b, out := la.NewMat(nb, nb), la.NewMat(nb, nb), la.NewMat(nb, nb)
	fill(a, 1)
	fill(b, 2)
	spd := la.NewMat(nb, nb)
	la.Syrk(la.Lower, 1, a, la.NoTrans, 0, spd)
	for i := 0; i < nb; i++ {
		spd.Set(i, i, spd.At(i, i)+float64(nb))
	}
	spd.Symmetrize()
	l := spd.Clone()
	if err := la.Potrf(l); err != nil {
		c.check("la probe", false, err.Error())
		return
	}
	f := float64(nb)
	rate := func(name string, flops float64, prep, kernel func()) {
		sp := c.rec.start(root, root.runID(), "la."+name)
		best := fastest(3, 30*time.Millisecond, prep, kernel)
		sp.end()
		c.set("la."+name+"_gflops", flops/best.Seconds()/1e9)
	}
	rate("gemm", 2*f*f*f, func() {}, func() { la.Gemm(-1, a, la.NoTrans, b, la.Transpose, 1, out) })
	rate("potrf", f*f*f/3, func() { out.CopyFrom(spd) }, func() { _ = la.Potrf(out) }) // spd by construction
	rate("trsm", f*f*f, func() { out.CopyFrom(a) }, func() { la.Trsm(la.Right, la.Lower, la.Transpose, 1, l, out) })
	rate("syrk", f*f*f, func() { out.CopyFrom(spd) }, func() { la.Syrk(la.Lower, -1, a, la.NoTrans, 1, out) })
}

// tileParts is what the tile probe hands to the parts-over-whole sum.
type tileParts struct {
	genChol, factor, forward, logdet time.Duration
}

// tileProbe times the dense tile layer at θ on the workload's problem: the
// fused generate+factor graph at P workers and at one, the factor alone on a
// pre-filled matrix, the solves, and the runtime's view of the fused graph.
// With full false only the fused P-worker run is made (the TLR workloads
// need it as the base of tlr.vs_tile_ratio).
func (c *runCtx) tileProbe(root *span, p *core.Problem, theta cov.Params, nb int, full bool) (tileParts, error) {
	var parts tileParts
	k := cov.NewKernel(theta)
	nugget := 1e-9 * theta.Variance
	m := tile.NewSym(p.N(), nb)
	spec := &tile.GenSpec{K: k, Pts: p.Points, Metric: p.Metric, Nugget: nugget}
	g, _ := tile.BuildGenCholeskyGraph(m, spec, true)
	var err error
	parts.genChol = c.probe(root, "tile.GenCholesky(P)", func() {
		err = g.Execute(runtime.ExecOptions{Workers: c.procs})
	})
	if err != nil {
		return parts, err
	}
	c.set("tile.gencholesky_s", seconds(parts.genChol))
	if !full {
		return parts, nil
	}
	w1 := c.probe(root, "tile.GenCholesky(1)", func() { err = g.Execute(runtime.ExecOptions{Workers: 1}) })
	if err != nil {
		return parts, err
	}
	c.set("tile.gencholesky_w1_s", seconds(w1))
	c.set("tile.par_speedup", seconds(w1)/seconds(parts.genChol))

	var tr *runtime.Trace
	c.probe(root, "runtime.ExecuteTraced", func() { tr, err = g.ExecuteTraced(runtime.ExecOptions{Workers: c.procs}) })
	if err != nil {
		return parts, err
	}
	c.traceMetrics(tr)
	c.set("runtime.dispatch_us", c.dispatchUS(root, g))

	tile.FillKernelParallel(m, k, p.Points, p.Metric, nugget, c.procs)
	parts.factor = c.probe(root, "tile.Cholesky", func() { err = tile.Cholesky(m, c.procs) })
	if err != nil {
		return parts, err
	}
	c.set("tile.cholesky_s", seconds(parts.factor))
	fg, _ := tile.BuildCholeskyGraph(m, false)
	c.set("tile.gflops", fg.TotalFlops()/seconds(parts.factor)/1e9)

	b := append([]float64(nil), p.Z...)
	parts.forward = c.probe(root, "tile.ForwardSolve", func() { err = tile.ForwardSolve(m, b, c.procs) })
	if err != nil {
		return parts, err
	}
	back := c.probe(root, "tile.BackwardSolve", func() { tile.BackwardSolve(m, b) })
	c.set("tile.solve_s", seconds(parts.forward+back))
	parts.logdet = c.probe(root, "tile.LogDet", func() { _ = m.LogDet() })
	return parts, nil
}

// traceMetrics reports the runtime's own account of one graph execution.
func (c *runCtx) traceMetrics(tr *runtime.Trace) {
	c.set("runtime.makespan_s", seconds(tr.Makespan()))
	c.set("runtime.busy_s", seconds(tr.BusyTime()))
	c.set("runtime.crit_path_s", seconds(tr.CritPath))
	c.set("runtime.utilization", tr.Utilization())
}

// dispatchUS executes a graph of the same shape as g whose tasks do nothing,
// and returns the runtime's cost per task: scheduling, wake-ups, accounting.
func (c *runCtx) dispatchUS(root *span, g *runtime.Graph) float64 {
	shape := runtime.NewGraph()
	hs := make([]*runtime.Handle, len(g.Handles()))
	for i, h := range g.Handles() {
		hs[i] = shape.NewHandle(h.Name, h.Bytes, h.Tag)
	}
	for _, t := range g.Tasks() {
		acc := make([]runtime.Access, len(t.Accesses))
		for i, a := range t.Accesses {
			acc[i] = runtime.Access{Handle: hs[a.Handle.ID], Mode: a.Mode}
		}
		shape.AddTask(runtime.Task{Name: t.Name, Priority: t.Priority, Run: func() {}, Accesses: acc})
	}
	sp := c.rec.start(root, root.runID(), "runtime.Execute(no-op tasks)")
	best := fastest(5, 0, func() {}, func() {
		_ = shape.Execute(runtime.ExecOptions{Workers: c.procs}) // no-op tasks cannot fail
	})
	sp.end()
	return micros(best) / float64(shape.Len())
}

// tlrParts is what the TLR probe hands to the parts-over-whole sum.
type tlrParts struct {
	genChol, assemble, factor, forward, logdet time.Duration
}

// tlrProbe times the TLR layer at θ on the workload's problem: assembly with
// compression, the factor alone, the solves, one low-rank GEMM at the mean
// rank, the fused graph at P workers and at one, and one fused evaluation at
// a looser and a tighter accuracy (the shape of the paper's Fig. 3). With
// runtimeView it also reports the runtime's account of the fused graph.
func (c *runCtx) tlrProbe(root *span, p *core.Problem, theta cov.Params, nb int, runtimeView bool) (tlrParts, error) {
	var parts tlrParts
	k := cov.NewKernel(theta)
	nugget := 1e-9 * theta.Variance
	comp, err := tlr.CompressorByName(tlrCompressor)
	if err != nil {
		return parts, err
	}
	n := p.N()

	var m *tlr.Matrix
	parts.assemble = c.probe(root, "tlr.FromKernel", func() {
		m = tlr.FromKernel(k, p.Points, p.Metric, n, nb, tlrAccuracy, comp, nugget, c.procs)
	})
	offTiles := m.MT * (m.MT - 1) / 2
	c.set("tlr.assemble_compress_s", seconds(parts.assemble))
	c.set("tlr.compress_us_per_tile", micros(parts.assemble)/float64(max(offTiles, 1)))
	_, meanRank := m.RankStats()
	c.set("tlr.gemmll_us", c.gemmLLUS(root, m, meanRank))

	parts.factor = c.probe(root, "tlr.Cholesky", func() { err = tlr.Cholesky(m, c.procs) })
	if err != nil {
		return parts, err
	}
	c.set("tlr.cholesky_s", seconds(parts.factor))
	b := append([]float64(nil), p.Z...)
	parts.forward = c.probe(root, "tlr.ForwardSolve", func() { m.ForwardSolve(b) })
	back := c.probe(root, "tlr.BackwardSolve", func() { m.BackwardSolve(b) })
	c.set("tlr.solve_s", seconds(parts.forward+back))
	parts.logdet = c.probe(root, "tlr.LogDet", func() { _ = m.LogDet() })

	var g *runtime.Graph
	fused := func(tol float64, workers int, name string) (time.Duration, error) {
		shell := tlr.NewMatrix(n, nb, tol)
		spec := &tlr.GenSpec{K: k, Pts: p.Points, Metric: p.Metric, Nugget: nugget, Comp: comp}
		g = tlr.BuildGenCholeskyGraph(shell, spec, true)
		var err error
		d := c.probe(root, name, func() { err = g.Execute(runtime.ExecOptions{Workers: workers}) })
		return d, err
	}
	if parts.genChol, err = fused(tlrAccuracy, c.procs, "tlr.GenCholesky(P)"); err != nil {
		return parts, err
	}
	if runtimeView {
		var tr *runtime.Trace
		c.probe(root, "runtime.ExecuteTraced", func() { tr, err = g.ExecuteTraced(runtime.ExecOptions{Workers: c.procs}) })
		if err != nil {
			return parts, err
		}
		c.traceMetrics(tr)
		c.set("runtime.dispatch_us", c.dispatchUS(root, g))
	}
	w1, err := fused(tlrAccuracy, 1, "tlr.GenCholesky(1)")
	if err != nil {
		return parts, err
	}
	c.set("tlr.gencholesky_s", seconds(parts.genChol))
	c.set("tlr.gencholesky_w1_s", seconds(w1))
	c.set("tlr.par_speedup", seconds(w1)/seconds(parts.genChol))
	for _, t := range []struct {
		tol  float64
		name string
	}{{1e-5, "tlr.eval_s.tol1e-5"}, {1e-9, "tlr.eval_s.tol1e-9"}} {
		d, err := fused(t.tol, c.procs, "tlr.GenCholesky("+t.name[len("tlr.eval_s."):]+")")
		if err != nil {
			return parts, err
		}
		c.set(t.name, seconds(d))
	}
	return parts, nil
}

// gemmLLUS times the low-rank update C ← C − A·Bᵀ on the tile triple of m
// whose ranks are closest to the mean rank.
func (c *runCtx) gemmLLUS(root *span, m *tlr.Matrix, meanRank float64) float64 {
	dist := func(t *tlr.CompTile) float64 { return math.Abs(float64(t.Rank()) - meanRank) }
	var a, b, acc *tlr.CompTile
	best := math.Inf(1)
	for i := 2; i < m.MT; i++ {
		for j := 1; j < i; j++ {
			for k := 0; k < j; k++ {
				x, y, z := m.Off(i, k), m.Off(j, k), m.Off(i, j)
				if x.IsDense() || y.IsDense() || z.IsDense() || x.Rows() != m.NB || y.Rows() != m.NB {
					continue
				}
				if d := dist(x) + dist(y) + dist(z); d < best {
					best, a, b, acc = d, x, y, z
				}
			}
		}
	}
	if a == nil {
		return 0
	}
	var cc *tlr.CompTile
	sp := c.rec.start(root, root.runID(), "tlr.GemmLL")
	d := fastest(5, 50*time.Millisecond, func() { cc = acc.Clone() }, func() { tlr.GemmLL(cc, a, b, m.Tol, m.MaxRank) })
	sp.end()
	return micros(d)
}

// mpiProbe times the in-process message layer alone: a two-rank ping-pong of
// one float and a P-rank scalar allreduce.
func (c *runCtx) mpiProbe(root *span) error {
	const rounds = 2000
	var pp, ar time.Duration
	var errs []error
	c.probe(root, "mpi ping-pong", func() {
		errs = mpi.RunWorld(2, func(cm *mpi.Comm) error {
			peer := 1 - cm.Rank()
			t0 := time.Now()
			for i := 0; i < rounds; i++ {
				if cm.Rank() == 0 {
					cm.Send(peer, 1, []float64{float64(i)})
					if _, err := cm.Recv(peer, 2); err != nil {
						return err
					}
				} else {
					if _, err := cm.Recv(peer, 1); err != nil {
						return err
					}
					cm.Send(peer, 2, []float64{float64(i)})
				}
			}
			if cm.Rank() == 0 {
				pp = time.Since(t0)
			}
			return nil
		})
	})
	if err := errors.Join(errs...); err != nil {
		return err
	}
	c.probe(root, "mpi allreduce", func() {
		errs = mpi.RunWorld(c.procs, func(cm *mpi.Comm) error {
			t0 := time.Now()
			for i := 0; i < rounds; i++ {
				if _, err := cm.AllreduceSum(10, 1); err != nil {
					return err
				}
			}
			if cm.Rank() == 0 {
				ar = time.Since(t0)
			}
			return nil
		})
	})
	if err := errors.Join(errs...); err != nil {
		return err
	}
	c.set("mpi.pingpong_us", micros(pp)/rounds)
	c.set("mpi.allreduce_us", micros(ar)/rounds)
	return nil
}

// traceOverhead compares the same operation with and without the recorder:
// the 4-point cached predict, the shortest call the traced pass wraps.
func (c *runCtx) traceOverhead(s *core.Session, theta cov.Params, pool []geom.Point) {
	const calls = 400
	loop := func(rec *recorder) time.Duration {
		run := rec.newRun()
		t0 := time.Now()
		for i := 0; i < calls; i++ {
			sp := rec.start(nil, run, "core.Predict(overhead probe)")
			_, _ = s.Predict(pool[:c.sz.MeanBatch], theta) // timing only; the same call is checked in directPredicts
			sp.end()
		}
		return time.Since(t0)
	}
	var with, without []float64
	for i := 0; i < 5; i++ {
		without = append(without, seconds(loop(nil)))
		with = append(with, seconds(loop(c.rec)))
	}
	c.set("bench.trace_overhead_frac", (median(with)-median(without))/median(without))
}
