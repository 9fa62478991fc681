// Out-of-core binding: wires a Matrix and its fused generation+Cholesky
// task graph to the memory-bounded tile store, so the factorization and
// the solves run under a fixed RAM budget with evicted tiles spilled to
// disk. The executor pins every handle a task touches around its body and
// unpins on every exit, so an aborted execution leaves no pin behind and the
// graph can simply be executed again: the generation tasks pin in overwrite
// mode and rebuild every tile, spilled or not.
package tlr

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/la"
	"repro/internal/runtime"
	"repro/internal/tlr/store"
)

// oocBinding links a Matrix to its store slots.
type oocBinding struct {
	st   *store.Store
	diag []*store.Slot
	off  [][]*store.Slot
}

// pinDiag/unpinDiag/pinOff/unpinOff bracket the direct tile accesses of
// the solve, logdet and reconstruction paths (read-only pins). They are
// no-ops for in-memory matrices.
func (m *Matrix) pinDiag(i int) {
	if m.ooc != nil {
		m.ooc.st.Pin(m.ooc.diag[i], store.PinRead)
	}
}

func (m *Matrix) unpinDiag(i int) {
	if m.ooc != nil {
		m.ooc.st.Unpin(m.ooc.diag[i])
	}
}

func (m *Matrix) pinOff(i, j int) {
	if m.ooc != nil {
		m.ooc.st.Pin(m.ooc.off[i][j], store.PinRead)
	}
}

func (m *Matrix) unpinOff(i, j int) {
	if m.ooc != nil {
		m.ooc.st.Unpin(m.ooc.off[i][j])
	}
}

// GenGraph bundles the fused generation+Cholesky graph with its tile
// handles, so callers can attach residency hooks after building it.
type GenGraph struct {
	G  *runtime.Graph
	DH []*runtime.Handle   // diagonal-tile handles, DH[i] ↔ m.Diag(i)
	OH [][]*runtime.Handle // off-diagonal handles, OH[i][j] ↔ m.Off(i, j)
}

// NewGenCholeskyGraph is BuildGenCholeskyGraph returning the handle arrays
// alongside the graph (AttachOOC needs them).
func NewGenCholeskyGraph(m *Matrix, spec *GenSpec, bind bool) *GenGraph {
	g := runtime.NewGraph()
	dh, oh := newTileHandles(g, m)
	AddGenTasks(g, m, spec, dh, oh, bind)
	addCholeskyTasks(g, m, dh, oh, bind)
	return &GenGraph{G: g, DH: dh, OH: oh}
}

// MinMemBudget returns the smallest sensible memory budget for a TLR run
// with tile size nb on the given worker count: each in-flight task pins up
// to three tiles plus compression scratch (all ≤ nb² doubles), and the
// budget is soft — pinned tiles are never evicted — so anything below one
// worker's working set cannot be honored even approximately.
func MinMemBudget(nb, workers int) int64 {
	if workers < 1 {
		workers = 1
	}
	return int64(workers) * 4 * int64(nb) * int64(nb) * 8
}

// AttachOOC binds m and its graph gg to the tile store st: every tile gets
// a store slot with spill/reload callbacks, every graph handle gets
// residency pin hooks, and m's solve paths pin tiles around each access.
// Call once, right after NewGenCholeskyGraph; the binding lives as long as
// the matrix. The store's budget then bounds the resident tile bytes for
// graph executions and solves alike (softly: pinned working sets are never
// evicted).
func AttachOOC(gg *GenGraph, m *Matrix, st *store.Store) {
	b := &oocBinding{st: st, diag: make([]*store.Slot, m.MT), off: make([][]*store.Slot, m.MT)}
	for i := 0; i < m.MT; i++ {
		i := i
		di := m.TileDim(i)
		b.diag[i] = st.Register(fmt.Sprintf("D[%d]", i), store.SlotFuncs{
			Bytes: func() int64 {
				if m.diag[i] == nil {
					return 0
				}
				return int64(di) * int64(di) * 8
			},
			Encode: func() []byte { return wordBytes(m.EncodeTile(i, i)) },
			Decode: func(buf []byte) error { return m.DecodeTile(i, i, bytesWords(buf)) },
			Drop:   func() { m.ClearTile(i, i) },
			Materialize: func() {
				if m.diag[i] == nil {
					m.diag[i] = la.NewMat(di, di)
				}
			},
		})
		installPin(gg.DH[i], st, b.diag[i])

		b.off[i] = make([]*store.Slot, i)
		for j := 0; j < i; j++ {
			j := j
			b.off[i][j] = st.Register(fmt.Sprintf("C[%d,%d]", i, j), store.SlotFuncs{
				Bytes: func() int64 {
					t := m.off[i][j]
					if t == nil || t.stub {
						return 0
					}
					return t.Bytes()
				},
				Encode: func() []byte { return wordBytes(m.EncodeTile(i, j)) },
				Decode: func(buf []byte) error { return m.DecodeTile(i, j, bytesWords(buf)) },
				Drop:   func() { m.off[i][j].drop() },
				// The generation task replaces the tile object wholesale,
				// so an overwrite pin needs no allocation.
				Materialize: func() {},
			})
			installPin(gg.OH[i][j], st, b.off[i][j])
		}
	}
	m.ooc = b
}

// installPin maps the executor's residency hooks onto the store: a task
// that only writes the handle pins in overwrite mode (no disk read), any
// other access pins in update mode (load + mark dirty; the executor cannot
// distinguish read-only tasks, so updates are assumed).
func installPin(h *runtime.Handle, st *store.Store, s *store.Slot) {
	h.PinFn = func(overwrite bool) {
		if overwrite {
			st.Pin(s, store.PinOverwrite)
		} else {
			st.Pin(s, store.PinUpdate)
		}
	}
	h.UnpinFn = func() { st.Unpin(s) }
}

// drop turns the tile into a spill stub: logical shape retained, payload
// released. Decoding reverses it.
func (c *CompTile) drop() {
	if c == nil || c.stub {
		return
	}
	c.stRows, c.stCols, c.stRank, c.stDense = c.Rows(), c.Cols(), c.Rank(), c.IsDense()
	c.stub = true
	c.U, c.V, c.D = nil, nil, nil
}

// Spill serialization: Matrix.EncodeTile's words as little-endian bytes.
// Spill data never leaves the machine or survives the process, so no
// versioning or checksums.
func wordBytes(words []float64) []byte {
	buf := make([]byte, 8*len(words))
	for i, v := range words {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
	}
	return buf
}

func bytesWords(buf []byte) []float64 {
	words := make([]float64, len(buf)/8)
	for i := range words {
		words[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
	}
	return words
}
