package cluster

import "math"

// tlrKernelEfficiency derates the machine's effective rate for TLR tasks:
// the QR/SVD recompression and small-rank GEMMs inside a TLR update run far
// below DGEMM efficiency. The dense tile kernels use denseEfficiency.
const (
	tlrKernelEfficiency = 0.08
	denseEfficiency     = 0.90
	// msgOverheadSeconds is the per-message software cost (MPI + runtime)
	// on top of wire latency.
	msgOverheadSeconds = 50e-6
	// tlrDistributedImbalance inflates multi-node TLR makespans: tile ranks
	// vary across the matrix, so static 2D block-cyclic ownership leaves
	// nodes with unequal work — an effect the roofline max cannot see.
	// Shared-memory runs are exempt (the work-stealing runtime rebalances).
	tlrDistributedImbalance = 1.5
)

// Result reports one modeled run.
type Result struct {
	// Seconds is the modeled makespan; meaningless when OOM is true.
	Seconds float64
	// OOM reports that the working set exceeded some node's memory — the
	// paper's "missing points".
	OOM bool
	// Tasks, TotalFlops and CommBytes summarize the modeled DAG.
	Tasks      int
	TotalFlops float64
	CommBytes  float64
	// MaxNodeBytes is the largest per-node working set.
	MaxNodeBytes int64
}

// AnalyticCholesky models one MLE iteration (generation [+ compression] +
// factorization) at the true tile granularity of the workload using roofline
// bounds instead of task-by-task simulation:
//
//	makespan = max(flop bound, memory-traffic bound, critical path,
//	               communication bound) + generation [+ compression].
//
// At paper scale the true DAG has 10⁸–10⁹ tasks; the analytic bounds keep
// per-task costs exact (including distance-dependent TLR ranks) while
// aggregating scheduling.
func AnalyticCholesky(m Machine, w Workload) Result {
	return newCostTable(m, w).analytic()
}

// AnalyticPrediction models the Fig. 5 prediction operation: AnalyticCholesky
// plus the solves of withSolves.
func AnalyticPrediction(m Machine, w Workload, nRHS int) Result {
	c := newCostTable(m, w)
	return c.withSolves(c.analytic(), nRHS)
}

// SimulateBlockCholesky models the Fig. 3 "full-block" baseline: a
// LAPACK-style blocked Cholesky with fork-join multithreaded BLAS, which
// achieves a lower parallel efficiency than tile task flow. The 0.45
// efficiency factor reproduces the block-vs-tile gap the paper (and [2])
// reports.
func SimulateBlockCholesky(m Machine, n int) Result {
	flops := float64(n) * float64(n) * float64(n) / 3
	res := Result{
		Seconds:    flops/(0.45*m.flopRate()) + generationSeconds(m, n),
		Tasks:      1,
		TotalFlops: flops,
	}
	// LAPACK factors in place; working set ≈ 1.2× the matrix.
	bytes := int64(n) * int64(n) * 8 / int64(m.Nodes)
	res.MaxNodeBytes = bytes + bytes/5
	if res.MaxNodeBytes > int64(m.Profile.MemGB*1e9) {
		res.OOM = true
	}
	return res
}

func (c costTable) analytic() Result {
	m, mt := c.m, c.mt
	var res Result

	// --- totals -------------------------------------------------------
	// potrf on the mt diagonal tiles; trsm and syrk on tile (i,k), which at
	// distance d = i−k occurs (mt−d) times.
	flops := float64(mt) * c.potrf()
	bytes := float64(mt) * c.tileBytes(0)
	for d := 1; d < mt; d++ {
		cnt := float64(mt - d)
		flops += cnt * (c.trsm(d) + c.syrk(d))
		bytes += cnt * (2*c.tileBytes(d) + 2*c.tileBytes(0))
	}
	// gemm: for panel k, pair (i, j) with s = i−k, t = j−k (s > t ≥ 1)
	// occurs for (mt − s) panel indices; cost depends only on (s, t).
	var gemmFlops, gemmBytes float64
	for s := 2; s < mt; s++ {
		cnt := float64(mt - s)
		for t := 1; t < s; t++ {
			gemmFlops += cnt * c.gemm(s, t)
			gemmBytes += cnt * (c.tileBytes(s) + c.tileBytes(t) + 2*c.tileBytes(s-t))
		}
	}
	flops += gemmFlops
	bytes += gemmBytes
	res.TotalFlops = flops
	res.Tasks = mt + (mt-1)*mt + mt*(mt-1)*(mt-2)/6

	// --- memory check -------------------------------------------------
	// The dense path (Chameleon descriptors) allocates the full square
	// matrix; TLR (HiCMA) stores diagonal + compressed lower triangle only.
	storage := c.storedBytes()
	if c.w.Variant == Dense {
		storage = float64(c.w.N) * float64(c.w.N) * 8
	}
	perNode := storage / float64(m.Nodes)
	res.MaxNodeBytes = int64(1.5 * perNode)
	if res.MaxNodeBytes > int64(m.Profile.MemGB*1e9) {
		res.OOM = true
		return res
	}

	// --- roofline terms -------------------------------------------------
	eff := denseEfficiency
	if c.w.Variant == TLRVariant {
		eff = tlrKernelEfficiency
	}
	flopTime := flops / (eff * m.flopRate())
	memTime := bytes / m.memBW()

	// critical path: the panel chain potrf→trsm→(syrk|gemm) per step, run
	// at single-core speed. The diagonal POTRF is a dense kernel in both
	// variants and runs at dense efficiency; only the low-rank updates are
	// derated.
	core := m.Profile.GFlopsPerCore * 1e9
	cpTime := float64(mt) * (c.potrf()/(core*denseEfficiency) + (c.trsm(1)+c.gemm(2, 1))/(core*eff))

	// communication: panel tiles broadcast along process-grid rows and
	// columns (the 2D block-cyclic pattern); each stored tile travels to at
	// most P+Q−2 other nodes.
	var commTime float64
	if m.Nodes > 1 && m.Profile.NetBWGBs > 0 {
		bcast := min(float64(m.Grid.P+m.Grid.Q-2), float64(m.Nodes-1))
		vol, msgs := c.storedBytes()*bcast, float64(mt*(mt+1)/2)*bcast
		res.CommBytes = vol
		perNodeVol := vol / float64(m.Nodes)
		perNodeMsgs := msgs / float64(m.Nodes)
		commTime = perNodeVol/(m.Profile.NetBWGBs*1e9) +
			perNodeMsgs*(m.Profile.NetLatency+msgOverheadSeconds)
	}

	res.Seconds = math.Max(math.Max(flopTime, memTime), math.Max(cpTime, commTime))
	if c.w.Variant == TLRVariant && m.Nodes > 1 {
		res.Seconds *= tlrDistributedImbalance
	}
	res.Seconds = c.withSetup(res.Seconds)
	return res
}
