package tile

import (
	"fmt"

	"repro/internal/la"
	"repro/internal/runtime"
)

// FlopsPOTRF etc. are the classical per-tile flop counts used both for task
// priorities and for the simulated executors.
func FlopsPOTRF(nb int) float64 { f := float64(nb); return f * f * f / 3 }

// FlopsTRSM is the cost of a triangular solve with an nb×nb factor applied
// to an m×nb (or nb×m) panel.
func FlopsTRSM(nb, m int) float64 { return float64(nb) * float64(nb) * float64(m) }

// FlopsSYRK is the cost of an nb×nb symmetric rank-k update with k columns.
func FlopsSYRK(nb, k int) float64 { return float64(nb) * float64(nb) * float64(k) }

// FlopsGEMM is the cost of an (m×k)·(k×n) multiply-accumulate.
func FlopsGEMM(m, k, n int) float64 { return 2 * float64(m) * float64(k) * float64(n) }

// BuildCholeskyGraph inserts the tiled right-looking Cholesky DAG
// (POTRF/TRSM/SYRK/GEMM per tile, the Chameleon dpotrf algorithm) into a new
// graph. When bind is true the tasks carry real Run closures mutating m in
// place; otherwise the graph is structural only (used by the distributed
// simulator). Handles are tagged with i*MT+j so owners can be derived.
func BuildCholeskyGraph(m *SymMatrix, bind bool) (*runtime.Graph, [][]*runtime.Handle) {
	g := runtime.NewGraph()
	hs := newTileHandles(g, m)
	addCholeskyTasks(g, m, hs, bind)
	return g, hs
}

// newTileHandles registers one data handle per stored tile.
func newTileHandles(g *runtime.Graph, m *SymMatrix) [][]*runtime.Handle {
	hs := make([][]*runtime.Handle, m.MT)
	for i := 0; i < m.MT; i++ {
		hs[i] = make([]*runtime.Handle, i+1)
		for j := 0; j <= i; j++ {
			bytes := int64(m.TileDim(i)) * int64(m.TileDim(j)) * 8
			hs[i][j] = g.NewHandle(fmt.Sprintf("A[%d,%d]", i, j), bytes, int64(i)*int64(m.MT)+int64(j))
		}
	}
	return hs
}

// SweepKernels supplies what differs between the deployments of the
// right-looking sweep: for each task of panel k, its flop annotation and its
// body (nil in a structural graph). Everything else about the DAG — loop
// nest, names, priorities, access lists — is AddCholeskySweep's.
type SweepKernels struct {
	Potrf func(k int) (flops float64, run func())
	Trsm  func(i, k int) (flops float64, run func())
	Syrk  func(i, k int) (flops float64, run func())
	Gemm  func(i, j, k int) (flops float64, run func())
}

// AddCholeskySweep inserts the tiled right-looking Cholesky DAG (the
// Chameleon dpotrf algorithm) over an mt×mt lower-triangular tile grid whose
// tile (i, j), j ≤ i, lives behind handle(i, j). It is the only place the
// sweep is spelled out: the full-tile factorization and the cluster
// simulator each pass their kernels. The simulator prices TLR on it too, as
// HiCMA runs it at the paper's tile sizes; the executed TLR factorization is
// tlr's left-looking sweep, which moves the same tiles between ranks.
func AddCholeskySweep(g *runtime.Graph, mt int, handle func(i, j int) *runtime.Handle, kern SweepKernels) {
	for k := 0; k < mt; k++ {
		flops, run := kern.Potrf(k)
		g.AddTask(runtime.Task{
			Name:     "potrf",
			Flops:    flops,
			Priority: 3 * (mt - k), // panel tasks drive the critical path
			Run:      run,
			Accesses: []runtime.Access{{Handle: handle(k, k), Mode: runtime.ReadWrite}},
		})
		for i := k + 1; i < mt; i++ {
			flops, run := kern.Trsm(i, k)
			g.AddTask(runtime.Task{
				Name:     "trsm",
				Flops:    flops,
				Priority: 2 * (mt - i),
				Run:      run,
				Accesses: []runtime.Access{
					{Handle: handle(k, k), Mode: runtime.Read},
					{Handle: handle(i, k), Mode: runtime.ReadWrite},
				},
			})
		}
		for i := k + 1; i < mt; i++ {
			flops, run := kern.Syrk(i, k)
			g.AddTask(runtime.Task{
				Name:  "syrk",
				Flops: flops,
				Run:   run,
				Accesses: []runtime.Access{
					{Handle: handle(i, k), Mode: runtime.Read},
					{Handle: handle(i, i), Mode: runtime.ReadWrite},
				},
			})
			for j := k + 1; j < i; j++ {
				flops, run := kern.Gemm(i, j, k)
				g.AddTask(runtime.Task{
					Name:  "gemm",
					Flops: flops,
					Run:   run,
					Accesses: []runtime.Access{
						{Handle: handle(i, k), Mode: runtime.Read},
						{Handle: handle(j, k), Mode: runtime.Read},
						{Handle: handle(i, j), Mode: runtime.ReadWrite},
					},
				})
			}
		}
	}
}

// addCholeskyTasks inserts the dense sweep over m's tile handles (shared by
// BuildCholeskyGraph and the combined generation+factorization graph in
// gen.go). A structural graph (bind false) carries the flop counts only.
func addCholeskyTasks(g *runtime.Graph, m *SymMatrix, hs [][]*runtime.Handle, bind bool) {
	body := func(run func()) func() {
		if !bind {
			return nil
		}
		return run
	}
	AddCholeskySweep(g, m.MT, func(i, j int) *runtime.Handle { return hs[i][j] }, SweepKernels{
		Potrf: func(k int) (float64, func()) {
			akk := m.Tile(k, k)
			return FlopsPOTRF(m.TileDim(k)), body(func() {
				if err := la.Potrf(akk); err != nil {
					panic(err)
				}
			})
		},
		Trsm: func(i, k int) (float64, func()) {
			akk, aik := m.Tile(k, k), m.Tile(i, k)
			return FlopsTRSM(m.TileDim(k), m.TileDim(i)), body(func() {
				la.Trsm(la.Right, la.Lower, la.Transpose, 1, akk, aik)
			})
		},
		Syrk: func(i, k int) (float64, func()) {
			aik, aii := m.Tile(i, k), m.Tile(i, i)
			return FlopsSYRK(m.TileDim(i), m.TileDim(k)), body(func() {
				la.Syrk(la.Lower, -1, aik, la.NoTrans, 1, aii)
			})
		},
		Gemm: func(i, j, k int) (float64, func()) {
			aik, ajk, aij := m.Tile(i, k), m.Tile(j, k), m.Tile(i, j)
			return FlopsGEMM(m.TileDim(i), m.TileDim(k), m.TileDim(j)), body(func() {
				la.Gemm(-1, aik, la.NoTrans, ajk, la.Transpose, 1, aij)
			})
		},
	})
}

// Cholesky factors m in place (lower tiles hold L on return) using the task
// runtime with the given worker count. It returns la.ErrNotPositiveDefinite
// (wrapped) if a diagonal pivot fails.
func Cholesky(m *SymMatrix, workers int) error {
	g, _ := BuildCholeskyGraph(m, true)
	return g.Execute(runtime.ExecOptions{Workers: workers})
}

// LogDet returns log|A| = 2·Σ log L_ii from a factored matrix.
func (m *SymMatrix) LogDet() float64 {
	var s float64
	for i := 0; i < m.MT; i++ {
		s += la.LogDetFromChol(m.Tile(i, i))
	}
	// LogDetFromChol already multiplies by 2 per tile
	return s
}
