package la

import (
	"fmt"
	"math"
)

// Side selects whether the triangular operand applies from the left or right.
type Side int

// Uplo selects the triangle referenced by a triangular or symmetric routine.
type Uplo int

// Trans selects whether an operand is transposed.
type Trans int

// Enumerations mirroring the BLAS conventions.
const (
	Left Side = iota
	Right
)
const (
	Lower Uplo = iota
	Upper
)
const (
	NoTrans Trans = iota
	Transpose
)

// Dot returns xᵀy.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("la: dot length mismatch")
	}
	var s float64
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// Axpy computes y += alpha*x.
func Axpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic("la: axpy length mismatch")
	}
	for i, v := range x {
		y[i] += alpha * v
	}
}

// Nrm2 returns the Euclidean norm of x using the LAPACK dnrm2 scaled
// accumulation, so vectors with entries near math.MaxFloat64 do not overflow
// the intermediate sum of squares and denormal entries do not underflow it.
func Nrm2(x []float64) float64 {
	var scale float64
	ssq := 1.0
	for _, v := range x {
		if v != v { // NaN propagates
			return math.NaN()
		}
		if v == 0 {
			continue
		}
		a := math.Abs(v)
		if scale < a {
			r := scale / a
			ssq = 1 + ssq*r*r
			scale = a
		} else {
			r := a / scale
			ssq += r * r
		}
	}
	if scale == 0 {
		return 0
	}
	return scale * math.Sqrt(ssq)
}

// Gemv computes y = alpha*op(A)*x + beta*y.
func Gemv(alpha float64, a *Mat, ta Trans, x []float64, beta float64, y []float64) {
	cntGemv.Inc()
	ar, ac := opDims(a, ta)
	if len(x) != ac || len(y) != ar {
		panic(fmt.Sprintf("la: gemv shape mismatch op(A)=%dx%d x=%d y=%d", ar, ac, len(x), len(y)))
	}
	gemv(alpha, a, ta, x, beta, y)
}

// gemv is the body of Gemv and of a Gemm with one column, on the vector
// kernels of qr.go: a dot per stored row of A, or, transposed, an axpy.
func gemv(alpha float64, a *Mat, ta Trans, x []float64, beta float64, y []float64) {
	if beta == 0 {
		clear(y)
	} else if beta != 1 {
		for i := range y {
			y[i] *= beta
		}
	}
	if alpha == 0 {
		return
	}
	if ta == NoTrans {
		for i := range y {
			y[i] += alpha * dot(a.Row(i), x)
		}
		return
	}
	for i, xi := range x {
		axpy(alpha*xi, a.Row(i), y)
	}
}

func opDims(a *Mat, t Trans) (r, c int) {
	if t == NoTrans {
		return a.Rows, a.Cols
	}
	return a.Cols, a.Rows
}

// Gemm computes C = alpha*op(A)*op(B) + beta*C.
//
// A C of two or more columns, of any shape, goes through the register-tiled
// micro-kernel (gemmDirect in pack.go), which reads op(A) and op(B) in place;
// a C of one column is a matrix-vector product and runs as Gemv does.
//
// An element of a C of two or more columns is a function of alpha, beta, its
// old value, its row of op(A) and its column of op(B) alone, bit for bit: a
// block of rows, or of at least two columns, computed on its own equals the
// same block of the whole product.
func Gemm(alpha float64, a *Mat, ta Trans, b *Mat, tb Trans, beta float64, c *Mat) {
	cntGemm.Inc()
	ar, ac := opDims(a, ta)
	br, bc := opDims(b, tb)
	if ac != br || c.Rows != ar || c.Cols != bc {
		panic(fmt.Sprintf("la: gemm shape mismatch op(A)=%dx%d op(B)=%dx%d C=%dx%d", ar, ac, br, bc, c.Rows, c.Cols))
	}
	if bc == 1 {
		y := column(c, NoTrans)
		gemv(alpha, a, ta, column(b, tb), beta, y)
		if c.Stride != 1 {
			for i, v := range y {
				c.Data[i*c.Stride] = v
			}
		}
		return
	}
	if beta != 1 {
		if beta == 0 {
			c.Zero()
		} else {
			c.Scale(beta)
		}
	}
	if alpha == 0 {
		return
	}
	gemmDirect(alpha, a, ta, b, tb, c, wholeC)
}

// column returns the one column of op(m) as a slice: m's own storage where
// that is contiguous, a copy where m is a strided view.
func column(m *Mat, t Trans) []float64 {
	if t == Transpose {
		return m.Row(0)
	}
	if m.Stride == 1 {
		return m.Data[:m.Rows]
	}
	v := make([]float64, m.Rows)
	for i := range v {
		v[i] = m.Data[i*m.Stride]
	}
	return v
}

// Syrk computes the symmetric rank-k update C = alpha*op(A)*op(A)ᵀ + beta*C,
// referencing and updating only the uplo triangle of C (the other triangle is
// left untouched). With t == NoTrans the update is A*Aᵀ; with Transpose it is
// Aᵀ*A.
//
// The update is Gemm's driver on op(A) and its own transpose, run over the
// register tiles that hold an element of the triangle and no others: a tile
// the diagonal crosses is computed whole and merged on its side of it.
func Syrk(uplo Uplo, alpha float64, a *Mat, t Trans, beta float64, c *Mat) {
	cntSyrk.Inc()
	n, k := opDims(a, t)
	if c.Rows != n || c.Cols != n {
		panic(fmt.Sprintf("la: syrk shape mismatch op(A)=%dx%d C=%dx%d", n, k, c.Rows, c.Cols))
	}
	// Apply beta to the referenced triangle only.
	if beta != 1 {
		for i := 0; i < n; i++ {
			lo, hi := 0, i+1
			if uplo == Upper {
				lo, hi = i, n
			}
			ci := c.Row(i)[lo:hi]
			if beta == 0 {
				clear(ci)
			} else {
				for j := range ci {
					ci[j] *= beta
				}
			}
		}
	}
	if alpha == 0 {
		return
	}
	p := lowerC
	if uplo == Upper {
		p = upperC
	}
	gemmDirect(alpha, a, t, a, other(t), c, p)
}

// other flips a transpose flag.
func other(t Trans) Trans {
	if t == NoTrans {
		return Transpose
	}
	return NoTrans
}

// Trsm solves the triangular system in place:
//
//	side == Left:  op(T) * X = alpha * B   (B overwritten with X)
//	side == Right: X * op(T) = alpha * B
//
// T references only its uplo triangle and must be non-singular.
//
// A column of X (Left) or a row of X (Right) is a function of T, alpha and
// the same column or row of B alone, bit for bit: solving B in slices, in
// any order, gives what solving it whole gives. Callers that bound memory by
// chunking their right-hand sides rely on it.
func Trsm(side Side, uplo Uplo, t Trans, alpha float64, tri *Mat, b *Mat) {
	cntTrsm.Inc()
	if tri.Rows != tri.Cols {
		panic("la: trsm with non-square triangular factor")
	}
	n := tri.Rows
	if side == Left && b.Rows != n || side == Right && b.Cols != n {
		panic(fmt.Sprintf("la: trsm shape mismatch T=%dx%d B=%dx%d side=%d", tri.Rows, tri.Cols, b.Rows, b.Cols, side))
	}
	if alpha != 1 {
		b.Scale(alpha)
	}
	trsm(side, uplo, t, tri, b)
}

// trsmBase is the largest triangle solved by substitution; a larger one is
// split. trsmRows is how many rows of a Right-side B are transposed at once:
// a trsmBase×trsmRows scratch panel fills a 32 KiB L1.
const (
	trsmBase = 32
	trsmRows = 128
)

// trsm is Trsm with alpha = 1, one recursion for the eight orientations.
// Splitting op(T) at n1 into T11, T22 and the one off-diagonal block that is
// not zero, and B into the matching halves B1, B2 (rows on the Left, columns
// on the Right), the half that depends on nothing else is solved first, its
// contribution leaves the other half in one product with the off-diagonal
// block, and the other half is solved.
//
// Every choice here is made on the order of the triangle, never on B's free
// dimension, and the product is gemmDirect, not Gemm (whose route for a
// one-column C is the Gemv body, which sums in another order): that is what
// makes a slice of B solve to the same bits as the whole.
func trsm(side Side, uplo Uplo, t Trans, tri, b *Mat) {
	n := tri.Rows
	if n <= trsmBase {
		trsmSmall(side, uplo, t, tri, b)
		return
	}
	n1 := (n/2 + gemmNR - 1) / gemmNR * gemmNR
	n2 := n - n1
	off := tri.View(n1, 0, n2, n1)
	if uplo == Upper {
		off = tri.View(0, n1, n1, n2)
	}
	var b1, b2 *Mat
	if side == Left {
		b1, b2 = b.View(0, 0, n1, b.Cols), b.View(n1, 0, n2, b.Cols)
	} else {
		b1, b2 = b.View(0, 0, b.Rows, n1), b.View(0, n1, b.Rows, n2)
	}
	t11, t22 := tri.View(0, 0, n1, n1), tri.View(n1, n1, n2, n2)
	// op(T) lower triangular on the Left, or upper on the Right, is forward
	// substitution: X1 first.
	if ((uplo == Lower) != (t == Transpose)) != (side == Left) {
		b1, b2, t11, t22 = b2, b1, t22, t11
	}
	trsm(side, uplo, t, t11, b1)
	if side == Left {
		gemmDirect(-1, off, t, b1, NoTrans, b2, wholeC)
	} else {
		gemmDirect(-1, b1, NoTrans, off, t, b2, wholeC)
	}
	trsm(side, uplo, t, t22, b2)
}

// trsmSmall solves a system of order at most trsmBase. The Left side
// substitutes over the rows of B. The Right side, X·op(T) = B, is the Left
// side's op(T)ᵀ·Xᵀ = Bᵀ: its rows go through pooled scratch transposed, so
// that the inner operation is still an axpy along B's free dimension and not
// a dot of length ≤ trsmBase.
func trsmSmall(side Side, uplo Uplo, t Trans, tri, b *Mat) {
	if side == Left {
		trsmSubst(uplo, t, tri, b)
		return
	}
	n := tri.Rows
	bufs := gemmPool.Get().(*gemmBufs)
	defer gemmPool.Put(bufs)
	for r0 := 0; r0 < b.Rows; r0 += trsmRows {
		rows := min(trsmRows, b.Rows-r0)
		bv := b.View(r0, 0, rows, n)
		w := NewMatFrom(n, rows, bufs.a[:n*rows])
		w.transposeFrom(bv)
		trsmSubst(uplo, other(t), tri, w)
		bv.transposeFrom(w)
	}
}

// trsmSubst solves op(T)·X = B in place, row i of B losing op(T)[i][k] times
// each row k solved before it and then divided by the diagonal.
func trsmSubst(uplo Uplo, t Trans, tri, b *Mat) {
	n := tri.Rows
	forward := (uplo == Lower) != (t == Transpose)
	at := func(s int) int { // the s-th row solved
		if forward {
			return s
		}
		return n - 1 - s
	}
	for s := 0; s < n; s++ {
		i := at(s)
		bi := b.Row(i)
		for q := 0; q < s; q++ {
			k := at(q)
			axpyFused(-triAt(tri, uplo, t, i, k), b.Row(k), bi)
		}
		inv := 1 / tri.At(i, i)
		for j := range bi {
			bi[j] *= inv
		}
	}
}

// axpyFused is y += alpha·x with one rounding rule at every length: the
// fused body where the CPU has it, whose tail is the scalar form of the same
// instruction, and the plain loop where it does not. axpy changes body at
// vecMin, which would make an element's bits depend on the width of the
// slice of B it was solved in.
func axpyFused(alpha float64, x, y []float64) {
	if !useFMAKernel {
		for i, v := range x {
			y[i] += alpha * v
		}
		return
	}
	if len(x) > 0 {
		axpyFMA(alpha, &x[0], &y[0], len(x))
	}
}
