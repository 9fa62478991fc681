// Package la provides the dense linear algebra substrate used throughout the
// repository: a row-major matrix type, BLAS-like level-1/2/3 kernels, and
// LAPACK-like factorizations (blocked Cholesky, blocked Householder QR,
// Golub–Kahan SVD by bidiagonalization and bidiagonal QR).
//
// The package plays the role of Intel MKL / reference LAPACK in the original
// ExaGeoStat stack. All routines operate on float64 and are deterministic.
//
// Dimension mismatches are programming errors, not runtime conditions, so the
// kernels panic on malformed inputs (the same contract as gonum and the BLAS
// reference implementation). Higher layers validate user input and return
// errors before reaching this package.
package la

import (
	"fmt"
	"math"
)

// Mat is a dense row-major matrix. Element (i, j) lives at Data[i*Stride+j].
// A Mat may be a view into a larger matrix, in which case Stride > Cols.
type Mat struct {
	Rows, Cols int
	Stride     int
	Data       []float64
}

// NewMat allocates a zeroed r×c matrix.
func NewMat(r, c int) *Mat {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("la: negative dimension %dx%d", r, c))
	}
	return &Mat{Rows: r, Cols: c, Stride: c, Data: make([]float64, r*c)}
}

// NewMatFrom wraps data (row-major, length r*c) without copying.
func NewMatFrom(r, c int, data []float64) *Mat {
	if len(data) != r*c {
		panic(fmt.Sprintf("la: data length %d does not match %dx%d", len(data), r, c))
	}
	return &Mat{Rows: r, Cols: c, Stride: c, Data: data}
}

// At returns element (i, j).
func (m *Mat) At(i, j int) float64 { return m.Data[i*m.Stride+j] }

// Set assigns element (i, j).
func (m *Mat) Set(i, j int, v float64) { m.Data[i*m.Stride+j] = v }

// Row returns a slice aliasing row i (length Cols).
func (m *Mat) Row(i int) []float64 { return m.Data[i*m.Stride : i*m.Stride+m.Cols] }

// View returns an r×c view starting at (i, j). The view aliases m's storage.
func (m *Mat) View(i, j, r, c int) *Mat {
	if i < 0 || j < 0 || r < 0 || c < 0 || i+r > m.Rows || j+c > m.Cols {
		panic(fmt.Sprintf("la: view (%d,%d,%d,%d) out of bounds of %dx%d", i, j, r, c, m.Rows, m.Cols))
	}
	return &Mat{Rows: r, Cols: c, Stride: m.Stride, Data: m.Data[i*m.Stride+j:]}
}

// Clone returns a compact deep copy of m.
func (m *Mat) Clone() *Mat {
	out := NewMat(m.Rows, m.Cols)
	out.CopyFrom(m)
	return out
}

// CopyFrom copies src into m; dimensions must match.
func (m *Mat) CopyFrom(src *Mat) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic(fmt.Sprintf("la: copy dimension mismatch %dx%d <- %dx%d", m.Rows, m.Cols, src.Rows, src.Cols))
	}
	for i := 0; i < m.Rows; i++ {
		copy(m.Row(i), src.Row(i))
	}
}

// Zero sets every element of m to zero.
func (m *Mat) Zero() {
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] = 0
		}
	}
}

// Eye returns the n×n identity.
func Eye(n int) *Mat {
	m := NewMat(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// T returns a newly allocated transpose of m.
func (m *Mat) T() *Mat {
	out := NewMat(m.Cols, m.Rows)
	out.transposeFrom(m)
	return out
}

// transposeFrom sets m = srcᵀ; m must be src.Cols×src.Rows.
func (m *Mat) transposeFrom(src *Mat) {
	i := 0
	for ; i+4 <= src.Rows; i += 4 { // four source rows make one contiguous store
		r0, r1, r2, r3 := src.Row(i), src.Row(i+1), src.Row(i+2), src.Row(i+3)
		for j, v := range r0 {
			d := m.Data[j*m.Stride+i : j*m.Stride+i+4]
			d[0], d[1], d[2], d[3] = v, r1[j], r2[j], r3[j]
		}
	}
	for ; i < src.Rows; i++ {
		for j, v := range src.Row(i) {
			m.Data[j*m.Stride+i] = v
		}
	}
}

// Scale multiplies every element of m by s.
func (m *Mat) Scale(s float64) {
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] *= s
		}
	}
}

// Add accumulates a into m element-wise (m += a).
func (m *Mat) Add(a *Mat) {
	if m.Rows != a.Rows || m.Cols != a.Cols {
		panic("la: add dimension mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		mr, ar := m.Row(i), a.Row(i)
		for j := range mr {
			mr[j] += ar[j]
		}
	}
}

// Sub subtracts a from m element-wise (m -= a).
func (m *Mat) Sub(a *Mat) {
	if m.Rows != a.Rows || m.Cols != a.Cols {
		panic("la: sub dimension mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		mr, ar := m.Row(i), a.Row(i)
		for j := range mr {
			mr[j] -= ar[j]
		}
	}
}

// FrobNorm returns the Frobenius norm of m.
func (m *Mat) FrobNorm() float64 {
	var sum float64
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for _, v := range row {
			sum += v * v
		}
	}
	return math.Sqrt(sum)
}

// MaxAbs returns the largest absolute element of m (0 for an empty matrix).
func (m *Mat) MaxAbs() float64 {
	var mx float64
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for _, v := range row {
			if a := math.Abs(v); a > mx {
				mx = a
			}
		}
	}
	return mx
}

// Equalish reports whether m and a agree element-wise within tol.
func (m *Mat) Equalish(a *Mat, tol float64) bool {
	if m.Rows != a.Rows || m.Cols != a.Cols {
		return false
	}
	for i := 0; i < m.Rows; i++ {
		mr, ar := m.Row(i), a.Row(i)
		for j := range mr {
			if math.Abs(mr[j]-ar[j]) > tol {
				return false
			}
		}
	}
	return true
}

// Symmetrize overwrites the strict upper triangle with the transpose of the
// strict lower triangle, making m exactly symmetric. m must be square.
func (m *Mat) Symmetrize() {
	if m.Rows != m.Cols {
		panic("la: symmetrize on non-square matrix")
	}
	for i := 0; i < m.Rows; i++ {
		for j := i + 1; j < m.Cols; j++ {
			m.Set(i, j, m.At(j, i))
		}
	}
}

// String renders small matrices for debugging.
func (m *Mat) String() string {
	if m.Rows*m.Cols > 400 {
		return fmt.Sprintf("Mat{%dx%d}", m.Rows, m.Cols)
	}
	s := ""
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			s += fmt.Sprintf("% .4e ", m.At(i, j))
		}
		s += "\n"
	}
	return s
}
