// Package cluster models the execution of the tiled dense and TLR Cholesky
// factorizations on parallel machines: the shared-memory Intel servers of
// paper Fig. 3 and the distributed-memory Cray XC40 Shaheen-2 of Figs. 4
// and 5. It is the substitute for hardware this reproduction does not have.
//
// At paper scale the tile DAG has 10⁸–10⁹ tasks, so the figures are drawn by
// AnalyticCholesky, a roofline model at the true tile size:
//
//   - compute: the sweep's flops at the machine's derated rate, against the
//     bytes its tasks touch at the memory bandwidth — the roofline that
//     makes low-arithmetic-intensity TLR kernels memory-bound, reproducing
//     the paper's tile-size discussion (§VIII-C);
//   - the panel chain at single-core speed, and the 2D block-cyclic
//     broadcasts' volume and message count on the interconnect;
//   - per-node memory accounting; configurations whose working set exceeds
//     node memory report OOM — the "missing points" of Fig. 4.
//
// Every model prices a (machine, workload) pair through one costTable; ranks
// for TLR costing come from a RankModel calibrated by really compressing
// Matérn tiles. Task-level simulation is runtime.Graph.Simulate of the graphs
// tile and tlr execute, and DistCholeskyComm places tlr's executed sweep.
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

// flopRate is the machine's aggregate effective rate (flops/s) and memBW its
// aggregate memory bandwidth (bytes/s).
func (m Machine) flopRate() float64 {
	return m.Profile.GFlopsPerCore * 1e9 * float64(m.Profile.Cores*m.Nodes)
}

func (m Machine) memBW() float64 { return m.Profile.MemBWGBs * 1e9 * float64(m.Nodes) }
