// Package tile implements the Chameleon substitute: tile-layout symmetric
// matrices and the tiled dense algorithms — generation and Cholesky
// factorization as task graphs over the runtime package, the triangular
// solves as one serial sweep over a block right-hand side (solve.go), the
// log-determinant. This is the paper's "full-tile" computation mode.
package tile

import (
	"fmt"

	"repro/internal/cov"
	"repro/internal/geom"
	"repro/internal/la"
)

// SymMatrix is an n×n symmetric matrix stored as the lower triangle of a
// grid of square tiles of edge NB (the trailing tile row/column may be
// smaller when NB does not divide n).
type SymMatrix struct {
	N  int
	NB int
	MT int // number of tile rows/cols
	// tiles[i][j] for j <= i
	tiles [][]*la.Mat
}

// NewSym allocates a zeroed tiled symmetric matrix.
func NewSym(n, nb int) *SymMatrix {
	if n <= 0 || nb <= 0 {
		panic(fmt.Sprintf("tile: invalid dims n=%d nb=%d", n, nb))
	}
	mt := (n + nb - 1) / nb
	tiles := make([][]*la.Mat, mt)
	for i := 0; i < mt; i++ {
		tiles[i] = make([]*la.Mat, i+1)
		for j := 0; j <= i; j++ {
			tiles[i][j] = la.NewMat(tileDim(n, nb, i), tileDim(n, nb, j))
		}
	}
	return &SymMatrix{N: n, NB: nb, MT: mt, tiles: tiles}
}

func tileDim(n, nb, i int) int {
	d := n - i*nb
	if d > nb {
		d = nb
	}
	return d
}

// TileDim returns the edge length of tile row/column i.
func (m *SymMatrix) TileDim(i int) int { return tileDim(m.N, m.NB, i) }

// Tile returns tile (i, j) with j ≤ i.
func (m *SymMatrix) Tile(i, j int) *la.Mat {
	if j > i {
		panic("tile: upper-triangle tile requested from symmetric storage")
	}
	return m.tiles[i][j]
}

// FillKernel populates the matrix from a covariance kernel over pts (the
// ExaGeoStat "matrix generation" stage): the sequential walk over the dcmg
// body the generation tasks run. The nugget is added to diagonal entries.
func (m *SymMatrix) FillKernel(k *cov.Kernel, pts []geom.Point, metric geom.Metric, nugget float64) {
	if len(pts) != m.N {
		panic(fmt.Sprintf("tile: %d points for n=%d", len(pts), m.N))
	}
	spec := &GenSpec{K: k, Pts: pts, Metric: metric, Nugget: nugget}
	for i := 0; i < m.MT; i++ {
		for j := 0; j <= i; j++ {
			m.dcmg(spec, i, j)
		}
	}
}

// ToDense gathers the tiles into a full symmetric dense matrix (testing and
// small-problem interop).
func (m *SymMatrix) ToDense() *la.Mat {
	out := la.NewMat(m.N, m.N)
	for i := 0; i < m.MT; i++ {
		for j := 0; j <= i; j++ {
			t := m.tiles[i][j]
			for a := 0; a < t.Rows; a++ {
				for b := 0; b < t.Cols; b++ {
					v := t.At(a, b)
					out.Set(i*m.NB+a, j*m.NB+b, v)
					out.Set(j*m.NB+b, i*m.NB+a, v)
				}
			}
		}
	}
	return out
}

// FromDense scatters a dense symmetric matrix into tile layout.
func FromDense(a *la.Mat, nb int) *SymMatrix {
	if a.Rows != a.Cols {
		panic("tile: FromDense requires square input")
	}
	m := NewSym(a.Rows, nb)
	for i := 0; i < m.MT; i++ {
		for j := 0; j <= i; j++ {
			t := m.tiles[i][j]
			for x := 0; x < t.Rows; x++ {
				for y := 0; y < t.Cols; y++ {
					t.Set(x, y, a.At(i*m.NB+x, j*m.NB+y))
				}
			}
		}
	}
	return m
}

// Bytes returns the memory footprint of the stored tiles.
func (m *SymMatrix) Bytes() int64 {
	var b int64
	for i := range m.tiles {
		for _, t := range m.tiles[i] {
			b += int64(t.Rows) * int64(t.Cols) * 8
		}
	}
	return b
}
