package la

import "fmt"

// Reference (naive) BLAS3 kernels.
//
// These are the seed's original triple-loop implementations, retained
// verbatim as the correctness oracle for the kernels that ride the packed,
// register-tiled engine: Gemm, Syrk (the same product over the tiles of one
// triangle) and Trsm (a recursion whose updates are packed products). The
// golden cross-check tests and the kernel benchmarks compare against them;
// they must stay simple enough to be obviously correct, so do not optimize
// them. RefTrmm has no production counterpart: it is the multiply that the
// tests check a solve against.

// RefGemm computes C = alpha*op(A)*op(B) + beta*C with the naive ikj loop.
func RefGemm(alpha float64, a *Mat, ta Trans, b *Mat, tb Trans, beta float64, c *Mat) {
	ar, ac := opDims(a, ta)
	br, bc := opDims(b, tb)
	if ac != br || c.Rows != ar || c.Cols != bc {
		panic(fmt.Sprintf("la: gemm shape mismatch op(A)=%dx%d op(B)=%dx%d C=%dx%d", ar, ac, br, bc, c.Rows, c.Cols))
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
	refGemmAcc(alpha, a, ta, b, tb, c)
}

// refGemmAcc accumulates C += alpha*op(A)*op(B) (beta already applied).
func refGemmAcc(alpha float64, a *Mat, ta Trans, b *Mat, tb Trans, c *Mat) {
	ar, ac := opDims(a, ta)
	_, bc := opDims(b, tb)
	switch {
	case ta == NoTrans && tb == NoTrans:
		for i := 0; i < ar; i++ {
			ci := c.Row(i)
			ai := a.Row(i)
			for k := 0; k < ac; k++ {
				aik := alpha * ai[k]
				if aik == 0 {
					continue
				}
				bk := b.Row(k)
				for j, v := range bk {
					ci[j] += aik * v
				}
			}
		}
	case ta == Transpose && tb == NoTrans:
		for i := 0; i < ar; i++ {
			ci := c.Row(i)
			for k := 0; k < ac; k++ {
				aik := alpha * a.At(k, i)
				if aik == 0 {
					continue
				}
				bk := b.Row(k)
				for j, v := range bk {
					ci[j] += aik * v
				}
			}
		}
	case ta == NoTrans && tb == Transpose:
		for i := 0; i < ar; i++ {
			ci := c.Row(i)
			ai := a.Row(i)
			for j := 0; j < bc; j++ {
				bj := b.Row(j)
				var s float64
				for k, v := range ai {
					s += v * bj[k]
				}
				ci[j] += alpha * s
			}
		}
	default: // Transpose, Transpose
		for i := 0; i < ar; i++ {
			ci := c.Row(i)
			for j := 0; j < bc; j++ {
				var s float64
				for k := 0; k < ac; k++ {
					s += a.At(k, i) * b.At(j, k)
				}
				ci[j] += alpha * s
			}
		}
	}
}

// RefSyrk computes C = alpha*op(A)*op(A)ᵀ + beta*C on the uplo triangle with
// the naive dot-product loop.
func RefSyrk(uplo Uplo, alpha float64, a *Mat, t Trans, beta float64, c *Mat) {
	n, k := opDims(a, t)
	if c.Rows != n || c.Cols != n {
		panic(fmt.Sprintf("la: syrk shape mismatch op(A)=%dx%d C=%dx%d", n, k, c.Rows, c.Cols))
	}
	for i := 0; i < n; i++ {
		lo, hi := 0, i+1
		if uplo == Upper {
			lo, hi = i, n
		}
		ci := c.Row(i)
		for j := lo; j < hi; j++ {
			var s float64
			if t == NoTrans {
				ai, aj := a.Row(i), a.Row(j)
				for p, v := range ai {
					s += v * aj[p]
				}
			} else {
				for p := 0; p < k; p++ {
					s += a.At(p, i) * a.At(p, j)
				}
			}
			ci[j] = alpha*s + beta*ci[j]
		}
	}
}

// RefTrsm solves op(T)*X = alpha*B (Left) or X*op(T) = alpha*B (Right) in
// place using per-element triAt access.
func RefTrsm(side Side, uplo Uplo, t Trans, alpha float64, tri *Mat, b *Mat) {
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
	lowerEff := (uplo == Lower) != (t == Transpose) // effective "forward" orientation
	switch side {
	case Left:
		if lowerEff {
			// forward substitution over rows of B
			for i := 0; i < n; i++ {
				for k := 0; k < i; k++ {
					lik := triAt(tri, uplo, t, i, k)
					if lik != 0 {
						Axpy(-lik, b.Row(k), b.Row(i))
					}
				}
				d := triAt(tri, uplo, t, i, i)
				inv := 1 / d
				bi := b.Row(i)
				for j := range bi {
					bi[j] *= inv
				}
			}
		} else {
			for i := n - 1; i >= 0; i-- {
				for k := i + 1; k < n; k++ {
					uik := triAt(tri, uplo, t, i, k)
					if uik != 0 {
						Axpy(-uik, b.Row(k), b.Row(i))
					}
				}
				inv := 1 / triAt(tri, uplo, t, i, i)
				bi := b.Row(i)
				for j := range bi {
					bi[j] *= inv
				}
			}
		}
	case Right:
		// Solve X*op(T) = B row by row: each row x satisfies op(T)ᵀ xᵀ = bᵀ.
		for r := 0; r < b.Rows; r++ {
			x := b.Row(r)
			if lowerEff {
				// op(T) lower => op(T)ᵀ upper => backward substitution
				for j := n - 1; j >= 0; j-- {
					s := x[j]
					for k := j + 1; k < n; k++ {
						s -= triAt(tri, uplo, t, k, j) * x[k]
					}
					x[j] = s / triAt(tri, uplo, t, j, j)
				}
			} else {
				for j := 0; j < n; j++ {
					s := x[j]
					for k := 0; k < j; k++ {
						s -= triAt(tri, uplo, t, k, j) * x[k]
					}
					x[j] = s / triAt(tri, uplo, t, j, j)
				}
			}
		}
	}
}

// RefTrmm computes B = alpha*op(T)*B (Left) or B = alpha*B*op(T) (Right).
func RefTrmm(side Side, uplo Uplo, t Trans, alpha float64, tri *Mat, b *Mat) {
	if tri.Rows != tri.Cols {
		panic("la: trmm with non-square triangular factor")
	}
	n := tri.Rows
	if side == Left && b.Rows != n || side == Right && b.Cols != n {
		panic("la: trmm shape mismatch")
	}
	lowerEff := (uplo == Lower) != (t == Transpose)
	switch side {
	case Left:
		if lowerEff {
			for i := n - 1; i >= 0; i-- {
				bi := b.Row(i)
				d := triAt(tri, uplo, t, i, i)
				for j := range bi {
					bi[j] *= d
				}
				for k := 0; k < i; k++ {
					lik := triAt(tri, uplo, t, i, k)
					if lik != 0 {
						Axpy(lik, b.Row(k), bi)
					}
				}
			}
		} else {
			for i := 0; i < n; i++ {
				bi := b.Row(i)
				d := triAt(tri, uplo, t, i, i)
				for j := range bi {
					bi[j] *= d
				}
				for k := i + 1; k < n; k++ {
					uik := triAt(tri, uplo, t, i, k)
					if uik != 0 {
						Axpy(uik, b.Row(k), bi)
					}
				}
			}
		}
	case Right:
		for r := 0; r < b.Rows; r++ {
			x := b.Row(r)
			if lowerEff {
				for j := 0; j < n; j++ {
					s := x[j] * triAt(tri, uplo, t, j, j)
					for k := j + 1; k < n; k++ {
						s += x[k] * triAt(tri, uplo, t, k, j)
					}
					x[j] = s
				}
			} else {
				for j := n - 1; j >= 0; j-- {
					s := x[j] * triAt(tri, uplo, t, j, j)
					for k := 0; k < j; k++ {
						s += x[k] * triAt(tri, uplo, t, k, j)
					}
					x[j] = s
				}
			}
		}
	}
	if alpha != 1 {
		b.Scale(alpha)
	}
}

// triAt reads the (i, j) element of op(T) where T is triangular with the
// given uplo; elements outside the stored triangle read as zero.
func triAt(tri *Mat, uplo Uplo, t Trans, i, j int) float64 {
	if t == Transpose {
		i, j = j, i
	}
	if uplo == Lower && j > i || uplo == Upper && j < i {
		return 0
	}
	return tri.At(i, j)
}
