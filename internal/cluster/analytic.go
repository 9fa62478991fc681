package cluster

import (
	"math"

	"repro/internal/tlr"
)

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

// AnalyticCholesky models one MLE iteration (generation [+ compression] +
// factorization) at the TRUE tile granularity of the workload using roofline
// bounds instead of task-by-task discrete events:
//
//	makespan = max(flop bound, memory-traffic bound, critical path,
//	               communication bound) + generation [+ compression].
//
// At paper scale the true DAG has 10⁸–10⁹ tasks, far beyond event-driven
// simulation; the analytic bounds keep per-task costs exact (including
// distance-dependent TLR ranks) while aggregating scheduling. The DES
// (SimulateCholesky) and this model agree at small tile counts (see tests).
func AnalyticCholesky(m Machine, w Workload) Result {
	if w.Variant == TLRVariant && w.Ranks == nil {
		panic("cluster: TLR workload without a rank model")
	}
	nb := w.NB
	mt := (w.N + nb - 1) / nb
	res := Result{EffectiveNB: nb, EffectiveMT: mt}

	rank := func(d int) int {
		if w.Variant == Dense {
			return nb
		}
		return w.Ranks.Rank(nb, d)
	}
	tileBytes := func(d int) float64 {
		if w.Variant == Dense || d == 0 {
			return float64(nb) * float64(nb) * 8
		}
		return float64(2*nb*rank(d)) * 8
	}

	fnb := float64(nb)
	// --- totals -------------------------------------------------------
	var flops, bytes, storage float64
	// potrf (diagonal, always dense)
	flops += float64(mt) * fnb * fnb * fnb / 3
	bytes += float64(mt) * tileBytes(0)
	storage += float64(mt) * tileBytes(0)
	// trsm and syrk: tile (i,k) at distance d = i−k occurs (mt−d) times.
	for d := 1; d < mt; d++ {
		cnt := float64(mt - d)
		storage += cnt * tileBytes(d)
		var trsmF, syrkF float64
		if w.Variant == Dense {
			trsmF = fnb * fnb * fnb
			syrkF = fnb * fnb * fnb
		} else {
			trsmF = tlr.FlopsTRSMComp(nb, rank(d))
			syrkF = tlr.FlopsSYRKComp(nb, rank(d))
		}
		flops += cnt * (trsmF + syrkF)
		bytes += cnt * (2*tileBytes(d) + 2*tileBytes(0))
	}
	// gemm: for panel k, pair (i, j) with s = i−k, t = j−k (s > t ≥ 1)
	// occurs for (mt − s) panel indices; cost depends only on (s, t).
	var gemmFlops, gemmBytes, gemmTasks float64
	for s := 2; s < mt; s++ {
		cnt := float64(mt - s)
		for t := 1; t < s; t++ {
			var f float64
			if w.Variant == Dense {
				f = 2 * fnb * fnb * fnb
			} else {
				f = tlr.FlopsGEMMComp(nb, rank(s), rank(t), rank(s-t))
			}
			gemmFlops += cnt * f
			gemmBytes += cnt * (tileBytes(s) + tileBytes(t) + 2*tileBytes(s-t))
			gemmTasks += cnt
		}
	}
	flops += gemmFlops
	bytes += gemmBytes
	res.TotalFlops = flops
	res.Tasks = mt + (mt-1)*mt + int(gemmTasks)

	// --- memory check -------------------------------------------------
	// The dense path (Chameleon descriptors) allocates the full square
	// matrix; TLR (HiCMA) stores diagonal + compressed lower triangle only.
	if w.Variant == Dense {
		storage = float64(w.N) * float64(w.N) * 8
	}
	perNode := storage / float64(m.Nodes)
	res.MaxNodeBytes = int64(1.5 * perNode)
	if res.MaxNodeBytes > int64(m.Profile.MemGB*1e9) {
		res.OOM = true
		return res
	}

	// --- roofline terms -------------------------------------------------
	eff := denseEfficiency
	if w.Variant == TLRVariant {
		eff = tlrKernelEfficiency
	}
	aggFlops := m.Profile.GFlopsPerCore * 1e9 * float64(m.Profile.Cores*m.Nodes)
	flopTime := flops / (eff * aggFlops)
	memTime := bytes / (m.Profile.MemBWGBs * 1e9 * float64(m.Nodes))

	// critical path: the panel chain potrf→trsm→(syrk|gemm) per step, run
	// at single-core speed. The diagonal POTRF is a dense kernel in both
	// variants and runs at dense efficiency; only the low-rank updates are
	// derated.
	coreDense := m.Profile.GFlopsPerCore * 1e9 * denseEfficiency
	coreEff := m.Profile.GFlopsPerCore * 1e9 * eff
	cpStep := fnb * fnb * fnb / 3 / coreDense
	if w.Variant == Dense {
		cpStep += (fnb*fnb*fnb + 2*fnb*fnb*fnb) / coreEff
	} else {
		cpStep += (tlr.FlopsTRSMComp(nb, rank(1)) + tlr.FlopsGEMMComp(nb, rank(2), rank(1), rank(1))) / coreEff
	}
	cpTime := float64(mt) * cpStep

	// communication: panel tiles broadcast along process-grid rows and
	// columns (the 2D block-cyclic pattern); each stored tile travels to at
	// most GridP+GridQ−2 other nodes.
	var commTime float64
	if m.Nodes > 1 && m.Profile.NetBWGBs > 0 {
		bcast := float64(m.GridP + m.GridQ - 2)
		if nn := float64(m.Nodes - 1); bcast > nn {
			bcast = nn
		}
		var vol, msgs float64
		for d := 0; d < mt; d++ {
			cnt := float64(mt - d)
			vol += cnt * tileBytes(d) * bcast
			msgs += cnt * bcast
		}
		res.CommBytes = vol
		perNodeVol := vol / float64(m.Nodes)
		perNodeMsgs := msgs / float64(m.Nodes)
		commTime = perNodeVol/(m.Profile.NetBWGBs*1e9) +
			perNodeMsgs*(m.Profile.NetLatency+msgOverheadSeconds)
	}

	res.Seconds = math.Max(math.Max(flopTime, memTime), math.Max(cpTime, commTime))
	if w.Variant == TLRVariant && m.Nodes > 1 {
		res.Seconds *= tlrDistributedImbalance
	}
	res.Seconds += generationSeconds(m, w.N)
	if w.Variant == TLRVariant {
		res.Seconds += analyticCompression(m, w, nb, mt)
	}
	return res
}

// analyticCompression is compressionSeconds at true granularity using the
// distance-counted tile population.
func analyticCompression(m Machine, w Workload, nb, mt int) float64 {
	var flops float64
	for d := 1; d < mt; d++ {
		k := w.Ranks.Rank(nb, d)
		flops += float64(mt-d) * 4 * float64(nb) * float64(nb) * float64(k+10)
	}
	agg := m.Profile.GFlopsPerCore * 1e9 * float64(m.Profile.Cores*m.Nodes)
	return flops / (compressionEfficiency * agg)
}

// AnalyticPrediction models the Fig. 5 prediction operation on top of
// AnalyticCholesky, mirroring SimulatePrediction's solve model.
func AnalyticPrediction(m Machine, w Workload, nRHS int) Result {
	res := AnalyticCholesky(m, w)
	if res.OOM {
		return res
	}
	nb := w.NB
	mt := (w.N + nb - 1) / nb
	var factorBytes float64
	factorBytes += float64(mt) * float64(nb) * float64(nb) * 8
	for d := 1; d < mt; d++ {
		if w.Variant == Dense {
			factorBytes += float64(mt-d) * float64(nb) * float64(nb) * 8
		} else {
			factorBytes += float64(mt-d) * float64(2*nb*w.Ranks.Rank(nb, d)) * 8
		}
	}
	aggBW := m.Profile.MemBWGBs * 1e9 * float64(m.Nodes)
	sweep := 2 * factorBytes / aggBW
	res.Seconds += sweep * (1 + 0.1*float64(nRHS-1))
	res.Seconds += float64(nRHS) * float64(w.N) * 60 / (m.Profile.GFlopsPerCore * 1e9)
	return res
}
