package cluster

import (
	"fmt"

	"repro/internal/runtime"
	"repro/internal/tile"
)

// Result reports one simulation.
type Result struct {
	// Seconds is the simulated makespan; meaningless when OOM is true.
	Seconds float64
	// OOM reports that the working set exceeded some node's memory — the
	// paper's "missing points".
	OOM bool
	// Tasks, TotalFlops and CommBytes summarize the executed DAG.
	Tasks      int
	TotalFlops float64
	CommBytes  float64
	// MaxNodeBytes is the largest per-node working set.
	MaxNodeBytes int64
	// EffectiveNB and EffectiveMT record the (possibly coarsened) tiling.
	EffectiveNB, EffectiveMT int
}

// buildDAG constructs the structural Cholesky DAG of the table's tiling, with
// per-handle byte sizes reflecting the storage format. The DAG is
// tile.AddCholeskySweep's — the one the full-tile and TLR factorizations
// execute — with the table's flop counts; a handle's Tag is its tile (i, j).
func (c costTable) buildDAG() *runtime.Graph {
	g := runtime.NewGraph()
	hs := make([][]*runtime.Handle, c.mt)
	for i := range hs {
		hs[i] = make([]*runtime.Handle, i+1)
		for j := range hs[i] {
			hs[i][j] = g.NewHandle(fmt.Sprintf("A[%d,%d]", i, j), int64(c.tileBytes(i-j)), int64(i)<<32|int64(j))
		}
	}
	tile.AddCholeskySweep(g, c.mt, func(i, j int) *runtime.Handle { return hs[i][j] }, tile.SweepKernels{
		Potrf: func(k int) (float64, func()) { return c.potrf(), nil },
		Trsm:  func(i, k int) (float64, func()) { return c.trsm(i - k), nil },
		Syrk:  func(i, k int) (float64, func()) { return c.syrk(i - k), nil },
		Gemm:  func(i, j, k int) (float64, func()) { return c.gemm(i-k, j-k), nil },
	})
	return g
}

// tileOf returns the tile (i, j) behind one of buildDAG's handles.
func tileOf(h *runtime.Handle) (i, j int) { return int(h.Tag >> 32), int(h.Tag & 0xffffffff) }

// SimulateCholesky runs the workload's factorization DAG on the machine and
// returns the simulated result, including the per-iteration matrix
// generation (and, for TLR, compression) that ExaGeoStat performs on every
// likelihood evaluation. Memory is checked before execution: the per-node
// working set is 1.5× the owned-data footprint (runtime buffers and
// communication staging), matching the qualitative OOM behaviour of Fig. 4.
func SimulateCholesky(m Machine, w Workload) Result {
	return newCostTable(m, w, desTileRows).simulate()
}

// SimulatePrediction models the Fig. 5 prediction operation: one simulated
// Cholesky factorization plus the solves of withSolves.
func SimulatePrediction(m Machine, w Workload, nRHS int) Result {
	c := newCostTable(m, w, desTileRows)
	return c.withSolves(c.simulate(), nRHS)
}

func (c costTable) simulate() Result {
	m := c.m
	g := c.buildDAG()
	res := Result{EffectiveNB: c.nb, EffectiveMT: c.mt, Tasks: g.Len(), TotalFlops: g.TotalFlops()}

	// memory accounting; the dense path allocates the full square matrix
	// (Chameleon descriptor), so off-diagonal tiles count twice (their
	// mirror lives on the transposed owner).
	nodeBytes := make([]int64, m.Nodes)
	for _, h := range g.Handles() {
		i, j := tileOf(h)
		nodeBytes[m.Grid.Owner(i, j)] += h.Bytes
		if c.w.Variant == Dense && i != j {
			nodeBytes[m.Grid.Owner(j, i)] += h.Bytes
		}
	}
	for _, b := range nodeBytes {
		res.MaxNodeBytes = max(res.MaxNodeBytes, b+b/2)
	}
	if res.MaxNodeBytes > int64(m.Profile.MemGB*1e9) {
		res.OOM = true
		return res
	}

	var makespan float64
	makespan, res.CommBytes = schedule(m, g, func(h *runtime.Handle) int { return m.Grid.Owner(tileOf(h)) })
	res.Seconds = c.withSetup(makespan)
	return res
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

// schedule is the discrete-event simulation of g on m: runtime's list
// scheduler with one pool of slots per node, told the two things a
// distributed machine adds, both read from g.Place over the owner map. A task
// runs on its node for max(flops/rate, bytes/memory-bandwidth) seconds of one
// slot; and each tile it reads from another node arrives one latency plus
// bytes/bandwidth after the task that last wrote it finished (transfers
// overlap). commBytes counts each transfer once, however many tasks of its
// node read it — what the ranks send.
func schedule(m Machine, g *runtime.Graph, owner func(*runtime.Handle) int) (makespan, commBytes float64) {
	perSlot := float64(m.Nodes * m.slots())
	slotRate, slotBW := m.flopRate()/perSlot, m.memBW()/perSlot
	lat, netBW := m.Profile.NetLatency, m.Profile.NetBWGBs*1e9

	p := g.Place(owner)
	tasks := g.Tasks()
	secs := make([]float64, len(tasks))
	for i, t := range tasks {
		var bytes int64
		for _, a := range t.Accesses {
			bytes += a.Handle.Bytes
		}
		secs[i] = max(t.Flops/slotRate, float64(bytes)/slotBW)
	}
	for _, x := range p.Transfers {
		commBytes += float64(x.Handle.Bytes)
	}
	makespan, err := g.Schedule(m.Nodes, m.slots(),
		func(t *runtime.Task) float64 { return secs[t.ID] },
		func(t *runtime.Task) int { return p.Node[t.ID] },
		func(t *runtime.Task, finish []float64) float64 {
			var at float64
			for _, x := range p.Inputs[t.ID] {
				f := p.Transfers[x]
				sent := lat
				if f.From >= 0 {
					sent += finish[f.From]
				}
				if netBW > 0 {
					sent += float64(f.Handle.Bytes) / netBW
				}
				at = max(at, sent)
			}
			return at
		}, nil)
	if err != nil {
		panic(err) // sequential task flow builds no cycle
	}
	return makespan, commBytes
}
