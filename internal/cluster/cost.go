package cluster

import (
	"fmt"

	"repro/internal/tile"
	"repro/internal/tlr"
)

// Variant selects the factorization whose DAG is modeled.
type Variant int

// Modeled computation variants.
const (
	Dense Variant = iota
	TLRVariant
)

func (v Variant) String() string {
	if v == Dense {
		return "full-tile"
	}
	return "tlr"
}

// Workload describes one modeled MLE iteration (generation + Cholesky +
// solve, the Fig. 3/4 unit of measurement).
type Workload struct {
	N  int
	NB int
	// Variant: Dense (full-tile) or TLRVariant.
	Variant Variant
	// Ranks must be set for TLRVariant; it carries the accuracy threshold.
	Ranks *RankModel
}

// costTable prices one workload on one machine at its own tiling. Everything
// that depends on the tile size, the storage format and the rank model — a
// tile's rank and bytes by its distance d = i−j from the diagonal, the four
// kernels' flops, the stored matrix and the compression work — is written
// here and nowhere else: the roofline model, both prediction models and the
// communication model read it.
type costTable struct {
	m      Machine
	w      Workload
	nb, mt int
	rank   []int // by distance from the diagonal; nb throughout when dense
}

// newCostTable checks the (machine, workload) pair — once, here, for every
// entry point of the package — and fixes the workload's tiling.
func newCostTable(m Machine, w Workload) costTable {
	switch {
	case w.N <= 0:
		panic(fmt.Sprintf("cluster: Workload.N = %d, must be positive", w.N))
	case w.NB <= 0:
		panic(fmt.Sprintf("cluster: Workload.NB = %d, must be positive", w.NB))
	case m.Nodes <= 0:
		panic(fmt.Sprintf("cluster: Machine.Nodes = %d, must be positive (NewMachine sets it)", m.Nodes))
	case m.Grid.P*m.Grid.Q != m.Nodes:
		panic(fmt.Sprintf("cluster: Machine.Grid %dx%d does not cover Machine.Nodes = %d", m.Grid.P, m.Grid.Q, m.Nodes))
	case w.Variant == TLRVariant && w.Ranks == nil:
		panic("cluster: TLR workload without a rank model (Workload.Ranks is nil)")
	}
	c := costTable{m: m, w: w, nb: w.NB, mt: (w.N + w.NB - 1) / w.NB}
	c.rank = make([]int, max(c.mt, 3)) // the critical-path step prices distances 1 and 2 at any mt
	for d := range c.rank {
		c.rank[d] = c.nb
		if w.Variant == TLRVariant {
			c.rank[d] = w.Ranks.Rank(c.nb, d)
		}
	}
	return c
}

// tileBytes is the stored size of a tile at distance d from the diagonal:
// dense on the diagonal and in the full-tile variant, U and V otherwise.
func (c costTable) tileBytes(d int) float64 {
	if c.w.Variant == Dense || d == 0 {
		return float64(c.nb) * float64(c.nb) * 8
	}
	return float64(2*c.nb*c.rank[d]) * 8
}

// The four kernels of the right-looking tile sweep: the dense one
// tile.BuildCholeskyGraph executes, and HiCMA's TLR one, whose updates
// recompress the target tile (tlr executes a left-looking sweep instead; see
// DESIGN.md "Machine model"). A tile enters by its distance from the
// diagonal; gemm updates the tile at distance s−t with the panel tiles at s
// and t (s > t ≥ 1).
func (c costTable) potrf() float64 { return tile.FlopsPOTRF(c.nb) }

func (c costTable) trsm(d int) float64 {
	if c.w.Variant == Dense {
		return tile.FlopsTRSM(c.nb, c.nb)
	}
	return tlr.FlopsTRSMComp(c.nb, c.rank[d])
}

func (c costTable) syrk(d int) float64 {
	if c.w.Variant == Dense {
		return tile.FlopsSYRK(c.nb, c.nb)
	}
	return tlr.FlopsSYRKComp(c.nb, c.rank[d])
}

func (c costTable) gemm(s, t int) float64 {
	if c.w.Variant == Dense {
		return tile.FlopsGEMM(c.nb, c.nb, c.nb)
	}
	return tlr.FlopsGEMMComp(c.nb, c.rank[s], c.rank[t], c.rank[s-t])
}

// storedBytes is the lower triangle in its storage format — the matrix before
// the factorization and the factor after it: mt − d tiles at each distance d.
func (c costTable) storedBytes() float64 {
	var b float64
	for d := 0; d < c.mt; d++ {
		b += float64(c.mt-d) * c.tileBytes(d)
	}
	return b
}

// kernelEvalSeconds is the modeled cost of one Matérn covariance evaluation
// (distance + Bessel-K + scaling) on one core. Every likelihood iteration
// regenerates the whole covariance matrix (θ changes between optimizer
// steps), so generation is part of the measured iteration in both the paper
// and this model. 3e-7 s ≈ 3.3 M evaluations/s/core, typical for a
// general-order Bessel path.
const kernelEvalSeconds = 3e-7

// compressionEfficiency derates the machine's GEMM rate for the QR/SVD-type
// kernels compression runs (lower arithmetic intensity, more memory traffic).
const compressionEfficiency = 0.5

// generationSeconds models the embarrassingly parallel covariance generation
// of one iteration: n²/2 kernel evaluations across all cores.
func generationSeconds(m Machine, n int) float64 {
	evals := float64(n) * float64(n) / 2
	return evals * kernelEvalSeconds / float64(m.Profile.Cores*m.Nodes)
}

// withSetup adds to a factorization's seconds what every iteration pays
// before it factors: generation and, for TLR, the compression of all
// off-diagonal tiles (randomized/cross approximation, O(nb²·k) per tile) at
// compressionEfficiency.
func (c costTable) withSetup(seconds float64) float64 {
	seconds += generationSeconds(c.m, c.w.N)
	if c.w.Variant == TLRVariant {
		var flops float64
		for d := 1; d < c.mt; d++ {
			flops += float64(c.mt-d) * 4 * float64(c.nb) * float64(c.nb) * float64(c.rank[d]+10)
		}
		seconds += flops / (compressionEfficiency * c.m.flopRate())
	}
	return seconds
}

// withSolves turns a factorization result into Fig. 5's prediction: forward
// and backward triangular solves with nRHS right-hand sides and the
// cross-covariance application. The solves are bandwidth-bound sweeps over
// the factor — every factor byte read twice per right-hand-side wavefront,
// right-hand sides beyond the first pipelining at 10% marginal cost — three
// orders of magnitude cheaper than the factorization, as the paper notes.
func (c costTable) withSolves(res Result, nRHS int) Result {
	if res.OOM {
		return res
	}
	sweep := 2 * c.storedBytes() / c.m.memBW()
	res.Seconds += sweep * (1 + 0.1*float64(nRHS-1))
	// cross-covariance apply: nRHS × N kernel evaluations + dot products,
	// negligible but accounted.
	res.Seconds += float64(nRHS) * float64(c.w.N) * 60 / (c.m.Profile.GFlopsPerCore * 1e9)
	return res
}
