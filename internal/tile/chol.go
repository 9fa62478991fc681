package tile

import (
	"fmt"

	"repro/internal/la"
	"repro/internal/runtime"
)

// FlopsPOTRF etc. are the classical per-tile flop counts the tasks carry for
// the simulated executor and the flop accounting.
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
// place; otherwise the graph is structural only (counted and simulated).
// Handles are tagged with i*MT+j so owners can be derived.
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

// addCholeskyTasks inserts the tiled right-looking Cholesky DAG (the
// Chameleon dpotrf algorithm) over m's tile handles, shared by
// BuildCholeskyGraph and the combined generation+factorization graph in
// gen.go. A structural graph (bind false) carries the flop counts only.
func addCholeskyTasks(g *runtime.Graph, m *SymMatrix, hs [][]*runtime.Handle, bind bool) {
	body := func(run func()) func() {
		if !bind {
			return nil
		}
		return run
	}
	mt := m.MT
	for k := 0; k < mt; k++ {
		akk := m.Tile(k, k)
		g.AddTask(runtime.Task{
			Name:     "potrf",
			Flops:    FlopsPOTRF(m.TileDim(k)),
			Priority: 3 * (mt - k), // panel tasks drive the critical path
			Run: body(func() {
				if err := la.Potrf(akk); err != nil {
					panic(err)
				}
			}),
			Accesses: []runtime.Access{{Handle: hs[k][k], Mode: runtime.ReadWrite}},
		})
		for i := k + 1; i < mt; i++ {
			aik := m.Tile(i, k)
			g.AddTask(runtime.Task{
				Name:     "trsm",
				Flops:    FlopsTRSM(m.TileDim(k), m.TileDim(i)),
				Priority: 2 * (mt - i),
				Run:      body(func() { la.Trsm(la.Right, la.Lower, la.Transpose, 1, akk, aik) }),
				Accesses: []runtime.Access{
					{Handle: hs[k][k], Mode: runtime.Read},
					{Handle: hs[i][k], Mode: runtime.ReadWrite},
				},
			})
		}
		for i := k + 1; i < mt; i++ {
			aik, aii := m.Tile(i, k), m.Tile(i, i)
			g.AddTask(runtime.Task{
				Name:  "syrk",
				Flops: FlopsSYRK(m.TileDim(i), m.TileDim(k)),
				Run:   body(func() { la.Syrk(la.Lower, -1, aik, la.NoTrans, 1, aii) }),
				Accesses: []runtime.Access{
					{Handle: hs[i][k], Mode: runtime.Read},
					{Handle: hs[i][i], Mode: runtime.ReadWrite},
				},
			})
			for j := k + 1; j < i; j++ {
				ajk, aij := m.Tile(j, k), m.Tile(i, j)
				g.AddTask(runtime.Task{
					Name:  "gemm",
					Flops: FlopsGEMM(m.TileDim(i), m.TileDim(k), m.TileDim(j)),
					Run:   body(func() { la.Gemm(-1, aik, la.NoTrans, ajk, la.Transpose, 1, aij) }),
					Accesses: []runtime.Access{
						{Handle: hs[i][k], Mode: runtime.Read},
						{Handle: hs[j][k], Mode: runtime.Read},
						{Handle: hs[i][j], Mode: runtime.ReadWrite},
					},
				})
			}
		}
	}
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
