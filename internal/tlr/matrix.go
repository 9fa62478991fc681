package tlr

import (
	"fmt"

	"repro/internal/cov"
	"repro/internal/geom"
	"repro/internal/la"
	"repro/internal/runtime"
	"repro/internal/tile"
)

// Matrix is an n×n symmetric matrix in TLR format: dense diagonal tiles and
// compressed (U·Vᵀ) strictly-lower tiles, mirrored implicitly to the upper
// triangle. Tol is the accuracy threshold every compressed tile satisfies
// and that all TLR arithmetic maintains.
type Matrix struct {
	N   int
	NB  int
	MT  int
	Tol float64

	// MaxRank, when positive, caps compressed tile ranks: a tile that
	// cannot meet Tol within MaxRank columns when it is compressed falls
	// back to exact dense (DE) storage instead of erroring or growing
	// without bound. Zero means uncapped.
	MaxRank int

	diag []*la.Mat
	off  [][]*CompTile // off[i][j] valid for j < i

	// comp is the compressor FromKernel built the tiles with, and the one
	// Cholesky compresses the factor tiles with; nil is CompressRSVD.
	comp Compressor

	// spill, when non-nil, is the out-of-core cache SpillCache.Bind
	// installed: a tile may be evicted to disk, its slot left nil, between
	// the pins that bracket every access (spill.go). Nil keeps every tile
	// resident (the default).
	spill *SpillCache
}

// NewMatrix allocates an empty TLR matrix shell.
func NewMatrix(n, nb int, tol float64) *Matrix {
	if n <= 0 || nb <= 0 {
		panic(fmt.Sprintf("tlr: invalid dims n=%d nb=%d", n, nb))
	}
	mt := (n + nb - 1) / nb
	m := &Matrix{N: n, NB: nb, MT: mt, Tol: tol}
	m.diag = make([]*la.Mat, mt)
	m.off = make([][]*CompTile, mt)
	for i := range m.off {
		m.off[i] = make([]*CompTile, i)
	}
	return m
}

// TileDim returns the edge of tile row i.
func (m *Matrix) TileDim(i int) int {
	d := m.N - i*m.NB
	if d > m.NB {
		d = m.NB
	}
	return d
}

// Diag returns dense diagonal tile i.
func (m *Matrix) Diag(i int) *la.Mat { return m.diag[i] }

// Off returns compressed tile (i, j), j < i.
func (m *Matrix) Off(i, j int) *CompTile { return m.off[i][j] }

// EncodeTile returns tile (i, j), j ≤ i, as words: a diagonal tile's compact
// row-major data, an off-diagonal tile's CompTile.Encode. It is the one
// serialization of a tile — what a rank sends and what the out-of-core cache
// spills. A diagonal tile's words are its storage; both callers copy them.
func (m *Matrix) EncodeTile(i, j int) []float64 {
	if i == j {
		return m.diag[i].Data
	}
	return m.off[i][j].Encode()
}

// DecodeTile installs EncodeTile's words as tile (i, j) and takes ownership
// of them. Words of the wrong length or shape for the slot are an error and
// leave it as it was.
func (m *Matrix) DecodeTile(i, j int, words []float64) error {
	di, dj := m.TileDim(i), m.TileDim(j)
	if i == j {
		if len(words) != di*di {
			return fmt.Errorf("tlr: decode diagonal tile %d: %d words for %dx%d", i, len(words), di, di)
		}
		m.diag[i] = la.NewMatFrom(di, di, words)
		return nil
	}
	t := new(CompTile)
	if err := t.Decode(words); err != nil {
		return err
	}
	if t.Rows() != di || t.Cols() != dj {
		return fmt.Errorf("tlr: decode tile (%d,%d): %dx%d words for a %dx%d tile", i, j, t.Rows(), t.Cols(), di, dj)
	}
	m.off[i][j] = t
	return nil
}

// ClearTile empties slot (i, j): a rank shard forgets a tile it received,
// the out-of-core cache drops one it spilled.
func (m *Matrix) ClearTile(i, j int) {
	if i == j {
		m.diag[i] = nil
	} else {
		m.off[i][j] = nil
	}
}

// FromKernel assembles and compresses the covariance matrix Σ(θ) for pts:
// diagonal tiles stay dense; each off-diagonal tile is generated densely and
// immediately compressed with comp (the HiCMA "generate + compress"
// pipeline). A nugget is added to the diagonal. The per-tile tasks are
// independent and run on the task runtime with the given worker count; the
// result is bitwise-independent of workers: each tile is compressed with its
// own tileSeed.
func FromKernel(k *cov.Kernel, pts []geom.Point, metric geom.Metric, n, nb int, tol float64, comp Compressor, nugget float64, workers int) *Matrix {
	if len(pts) != n {
		panic(fmt.Sprintf("tlr: %d points for n=%d", len(pts), n))
	}
	m := NewMatrix(n, nb, tol)
	m.comp = comp
	spec := &GenSpec{K: k, Pts: pts, Metric: metric, Nugget: nugget, Comp: comp}
	g := runtime.NewGraph()
	for i := 0; i < m.MT; i++ {
		g.AddTask(runtime.Task{Name: "dcmg", Run: func() { m.GenDiag(spec, i) }})
		for j := 0; j < i; j++ {
			g.AddTask(runtime.Task{Name: "dcmg+comp", Run: func() { m.GenOff(spec, i, j) }})
		}
	}
	if err := g.Execute(runtime.ExecOptions{Workers: workers}); err != nil {
		// generation and compression cannot fail numerically; a panic here is
		// a programming error
		panic(err)
	}
	return m
}

// ToDense reconstructs the full symmetric dense matrix.
func (m *Matrix) ToDense() *la.Mat {
	out := la.NewMat(m.N, m.N)
	for i := 0; i < m.MT; i++ {
		m.pin(i, i, pinRead)
		d := m.diag[i]
		for a := 0; a < d.Rows; a++ {
			for b := 0; b < d.Cols; b++ {
				out.Set(i*m.NB+a, i*m.NB+b, d.At(a, b))
			}
		}
		m.unpin(i, i)
		for j := 0; j < i; j++ {
			m.pin(i, j, pinRead)
			t := m.off[i][j].Dense()
			m.unpin(i, j)
			for a := 0; a < t.Rows; a++ {
				for b := 0; b < t.Cols; b++ {
					out.Set(i*m.NB+a, j*m.NB+b, t.At(a, b))
					out.Set(j*m.NB+b, i*m.NB+a, t.At(a, b))
				}
			}
		}
	}
	return out
}

// Bytes returns the TLR storage footprint: the bytes the matrix occupies
// fully resident. A tile the out-of-core cache evicted counts at its size; a
// tile that was never generated — a rank shard populates only the tiles it
// owns — counts nothing.
func (m *Matrix) Bytes() int64 {
	var b int64
	for i, d := range m.diag {
		if d != nil || m.spill != nil {
			di := int64(m.TileDim(i))
			b += di * di * 8
		}
	}
	for i := range m.off {
		for j := range m.off[i] {
			tb, _, _ := m.offStats(i, j)
			b += tb
		}
	}
	return b
}

// DenseBytes returns the footprint the same matrix would need uncompressed
// (lower triangle + diagonal, the tile storage the dense path uses).
func (m *Matrix) DenseBytes() int64 {
	var b int64
	for i := 0; i < m.MT; i++ {
		di := int64(m.TileDim(i))
		b += di * di * 8
		for j := 0; j < i; j++ {
			b += di * int64(m.TileDim(j)) * 8
		}
	}
	return b
}

// RankSums returns the max rank, rank sum and tile count over the populated
// compressed tiles (summed across rank shards for global statistics).
func (m *Matrix) RankSums() (maxRank, sumRank, count int) {
	for i := range m.off {
		for j := range m.off[i] {
			if _, r, ok := m.offStats(i, j); ok {
				maxRank = max(maxRank, r)
				sumRank += r
				count++
			}
		}
	}
	return
}

// RankStats returns the max and mean rank over the compressed tiles.
func (m *Matrix) RankStats() (maxRank int, meanRank float64) {
	maxRank, sum, cnt := m.RankSums()
	if cnt > 0 {
		meanRank = float64(sum) / float64(cnt)
	}
	return maxRank, meanRank
}

// FlopsTRSMComp estimates the flops of the TLR panel solve on a tile of
// rank k: a triangular solve applied to an nb×k V factor.
func FlopsTRSMComp(nb, k int) float64 { return float64(nb) * float64(nb) * float64(k) }

// FlopsSYRKComp estimates the compressed SYRK cost.
func FlopsSYRKComp(nb, k int) float64 {
	return 2*float64(k)*float64(k)*float64(nb) + 2*float64(nb)*float64(nb)*float64(k)
}

// FlopsGEMMComp estimates the compressed GEMM C ← C − A·Bᵀ for operand ranks
// ka, kb and target rank kc. It is the machine model's price only: the
// executed sweep subtracts each tile's update densely before compressing it
// (buildSweep), and internal/cluster prices HiCMA's right-looking sweep, whose
// trailing update runs as addLowRank's structured update does with
// kx = min(ka, kb): the contraction Vaᵀ·Vb and its product with the wider U
// (4·nb·ka·kb), the two Gram matrices that check C's bases (4·nb·kc²), the
// projections against them — twice before the pivoted QRs of the two
// remainders, once after on the half of the columns that survive them
// (20·nb·kc·kx) — those QRs (4·nb·kx²), the SVD of the core ((kc+kx)³) and
// the products back onto the bases (4·nb·(kc+kx)·kc).
func FlopsGEMMComp(nb, ka, kb, kc int) float64 {
	n, a, b, c := float64(nb), float64(ka), float64(kb), float64(kc)
	x := min(a, b)
	return 4*n*a*b + 4*n*c*c + 20*n*c*x + 4*n*x*x + (c+x)*(c+x)*(c+x) + 4*n*(c+x)*c
}

// BuildCholeskyGraph builds the TLR Cholesky of the tiles m stores: the
// sweep GenCholesky runs, with each stored tile as its source instead of the
// generator, compressed again with the compressor m was built with. When
// bind is true the tasks mutate m in place.
func BuildCholeskyGraph(m *Matrix, bind bool) *runtime.Graph {
	comp := m.comp
	if comp == nil {
		comp = CompressRSVD
	}
	return buildSweep(m, &GenSpec{Comp: comp}, false, bind)
}

// TileOf returns the tile (i, j) behind one of the handles of m's task
// graphs — what owner maps are keyed by.
func (m *Matrix) TileOf(h *runtime.Handle) (i, j int) { return int(h.Tag) / m.MT, int(h.Tag) % m.MT }

// newTileHandles registers one data handle per stored tile: dense diagonal
// tiles and compressed off-diagonal tiles, tile (i, j) tagged i·MT + j for
// TileOf. Compressed handles start with the current tile's footprint (zero
// for an empty shell) and are refreshed via SetBytes by the tasks that write
// the tiles, as ranks change.
func newTileHandles(g *runtime.Graph, m *Matrix) ([]*runtime.Handle, [][]*runtime.Handle) {
	dh := make([]*runtime.Handle, m.MT)
	oh := make([][]*runtime.Handle, m.MT)
	for i := 0; i < m.MT; i++ {
		di := int64(m.TileDim(i))
		dh[i] = g.NewHandle(fmt.Sprintf("D[%d]", i), di*di*8, int64(i)*int64(m.MT)+int64(i))
		oh[i] = make([]*runtime.Handle, i)
		for j := 0; j < i; j++ {
			var bytes int64
			if m.off[i][j] != nil {
				bytes = m.off[i][j].Bytes()
			}
			oh[i][j] = g.NewHandle(fmt.Sprintf("C[%d,%d]", i, j), bytes, int64(i)*int64(m.MT)+int64(j))
		}
	}
	return dh, oh
}

// Cholesky factors m in place: on return the diagonal tiles hold dense
// Cholesky factors and the off-diagonal tiles the compressed L factors. It
// returns la.ErrNotPositiveDefinite (wrapped) if a pivot fails.
func Cholesky(m *Matrix, workers int) error {
	g := BuildCholeskyGraph(m, true)
	return g.Execute(runtime.ExecOptions{Workers: workers})
}

// LogDet returns log|A| from a TLR-factored matrix.
func (m *Matrix) LogDet() float64 {
	var s float64
	for i := range m.diag {
		m.pin(i, i, pinRead)
		s += la.LogDetFromChol(m.diag[i])
		m.unpin(i, i)
	}
	return s
}

// solveMat runs tile.SolveSweep with the compressed kernels, pinning each tile
// around its use (a no-op in core); none of them can fail.
func (m *Matrix) solveMat(ta la.Trans, b *la.Mat) {
	_ = tile.SolveSweep(m.N, m.NB, ta, b,
		func(i, j int, bj, bi *la.Mat) error {
			r, c := max(i, j), min(i, j)
			m.pin(r, c, pinRead)
			MatMul(m.off[r][c], ta, -1, bj, bi)
			m.unpin(r, c)
			return nil
		},
		func(i int, bi *la.Mat) error {
			m.pin(i, i, pinRead)
			la.Trsm(la.Left, la.Lower, ta, 1, m.diag[i], bi)
			m.unpin(i, i)
			return nil
		})
}

// ForwardSolveMat overwrites the n×r block B with L⁻¹·B against a
// TLR-factored matrix.
func (m *Matrix) ForwardSolveMat(b *la.Mat) { m.solveMat(la.NoTrans, b) }

// BackwardSolveMat overwrites the n×r block B with L⁻ᵀ·B.
func (m *Matrix) BackwardSolveMat(b *la.Mat) { m.solveMat(la.Transpose, b) }

// ForwardSolve and BackwardSolve are the vector entry points bench/layers.go
// times, and bench/ is edited only by [benchmark] PRs: one-line shims over
// the block solve for the next one to retire. Nothing else may call them.
func (m *Matrix) ForwardSolve(b []float64) { m.ForwardSolveMat(la.NewMatFrom(len(b), 1, b)) }

// BackwardSolve: see ForwardSolve.
func (m *Matrix) BackwardSolve(b []float64) { m.BackwardSolveMat(la.NewMatFrom(len(b), 1, b)) }
