// Package cluster simulates the execution of the tiled dense and TLR
// Cholesky task DAGs on parallel machines: the shared-memory Intel servers
// of paper Fig. 3 and the distributed-memory Cray XC40 Shaheen-2 of Figs. 4
// and 5. It is the substitute for hardware this reproduction does not have.
//
// The simulator executes the genuine task DAG (same shape as the runtime
// executes for real at laptop scale) under a machine model:
//
//   - per-node compute: a task occupies one core-slot for
//     max(flops/rate, bytes/memory-bandwidth) seconds — the roofline that
//     makes low-arithmetic-intensity TLR kernels memory-bound, reproducing
//     the paper's tile-size discussion (§VIII-C);
//   - 2D block-cyclic tile ownership across nodes; a task runs on the node
//     owning its output tile and pays latency + size/bandwidth for each
//     remote input;
//   - per-node memory accounting; configurations whose working set exceeds
//     node memory report OOM — the "missing points" of Fig. 4.
//
// At paper scale the true tile grid would generate billions of tasks, so the
// simulator coarsens the tile grid to at most desTileRows = 128 rows while
// keeping total arithmetic faithful to the algorithm at the coarsened tile
// size (a legitimate configuration of the same algorithm), and the figures
// are drawn by AnalyticCholesky, the roofline model at the true tile size.
// Both price a (machine, workload) pair through one costTable; ranks for TLR
// costing come from a RankModel calibrated by really compressing Matérn
// tiles.
package cluster

import "repro/internal/mpi"

// Profile describes one node type. Rates are effective (not peak) and were
// set to give sensible absolute times; the reproduction targets relative
// behaviour across modes and accuracies.
type Profile struct {
	Name string
	// Cores per node.
	Cores int
	// GFlopsPerCore is the effective double-precision rate of one core on
	// compute-bound BLAS3 (GF/s).
	GFlopsPerCore float64
	// MemBWGBs is the per-node memory bandwidth (GB/s) shared by its cores.
	MemBWGBs float64
	// MemGB is usable node memory (GB).
	MemGB float64
	// NetLatency (s) and NetBWGBs (GB/s) describe the interconnect; zero
	// for shared-memory runs.
	NetLatency float64
	NetBWGBs   float64
}

// Shared-memory testbeds of Fig. 3 and the Shaheen-2 node of Figs. 4-5.
// Core counts match the paper's §VIII-A hardware list; rates are effective
// per-core DGEMM throughputs typical for those parts.
var (
	Haswell = Profile{
		Name: "haswell", Cores: 36, GFlopsPerCore: 30, MemBWGBs: 120, MemGB: 256,
	}
	Broadwell = Profile{
		Name: "broadwell", Cores: 28, GFlopsPerCore: 32, MemBWGBs: 130, MemGB: 256,
	}
	KNL = Profile{
		Name: "knl", Cores: 64, GFlopsPerCore: 28, MemBWGBs: 400, MemGB: 192,
	}
	Skylake = Profile{
		Name: "skylake", Cores: 56, GFlopsPerCore: 45, MemBWGBs: 220, MemGB: 384,
	}
	// ShaheenNode: dual-socket 16-core Haswell, 128 GB, Cray Aries.
	ShaheenNode = Profile{
		Name: "shaheen-node", Cores: 32, GFlopsPerCore: 30, MemBWGBs: 110, MemGB: 128,
		NetLatency: 1.5e-6, NetBWGBs: 8,
	}
)

// Machine is a collection of identical nodes arranged in a process grid.
type Machine struct {
	Profile Profile
	// Nodes is the node count and Grid the 2D block-cyclic process grid that
	// maps tile (i, j) to its node; Grid.P×Grid.Q must equal Nodes
	// (NewMachine picks the most square factorization).
	Nodes int
	Grid  mpi.Grid
}

// NewMachine builds a machine with a near-square process grid.
func NewMachine(p Profile, nodes int) Machine {
	return Machine{Profile: p, Nodes: nodes, Grid: mpi.SquarestGrid(nodes)}
}

// slots is the number of execution slots the simulator gives a node: its
// cores up to 8, each slot sped up so the node's aggregate throughput is
// preserved.
func (m Machine) slots() int { return min(m.Profile.Cores, 8) }

// flopRate is the machine's aggregate effective rate (flops/s) and memBW its
// aggregate memory bandwidth (bytes/s); one slot has its share of either.
func (m Machine) flopRate() float64 {
	return m.Profile.GFlopsPerCore * 1e9 * float64(m.Profile.Cores*m.Nodes)
}

func (m Machine) memBW() float64 { return m.Profile.MemBWGBs * 1e9 * float64(m.Nodes) }
