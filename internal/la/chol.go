package la

import (
	"errors"
	"fmt"
	"math"
)

// ErrNotPositiveDefinite is returned when a Cholesky factorization encounters
// a non-positive pivot, indicating the input is not (numerically) SPD.
var ErrNotPositiveDefinite = errors.New("la: matrix is not positive definite")

// PotrfUnblocked computes the lower Cholesky factor of the symmetric positive
// definite matrix a in place: on return the lower triangle of a holds L with
// A = L·Lᵀ. Only the lower triangle of a is referenced; the strict upper
// triangle is left untouched.
func PotrfUnblocked(a *Mat) error {
	if a.Rows != a.Cols {
		panic("la: potrf on non-square matrix")
	}
	n := a.Rows
	for j := 0; j < n; j++ {
		jr := a.Row(j)
		d := jr[j] - dot(jr[:j], jr[:j])
		if d <= 0 || math.IsNaN(d) {
			return fmt.Errorf("%w (pivot %d = %g)", ErrNotPositiveDefinite, j, d)
		}
		d = math.Sqrt(d)
		a.Set(j, j, d)
		inv := 1 / d
		for i := j + 1; i < n; i++ {
			ir := a.Row(i)
			ir[j] = (ir[j] - dot(ir[:j], jr[:j])) * inv
		}
	}
	return nil
}

// potrfBlockSize is the panel width of the blocked Cholesky. 64 balances
// BLAS3 locality against panel overhead for the tile sizes used here.
const potrfBlockSize = 64

// Potrf computes the lower Cholesky factor of a in place using a
// right-looking blocked algorithm (the LAPACK dpotrf structure). This is the
// "full-block" MLE baseline of the paper (MKL LAPACK path).
func Potrf(a *Mat) error {
	cntPotrf.Inc()
	if a.Rows != a.Cols {
		panic("la: potrf on non-square matrix")
	}
	n := a.Rows
	nb := potrfBlockSize
	if n <= nb {
		return PotrfUnblocked(a)
	}
	for k := 0; k < n; k += nb {
		b := min(nb, n-k)
		akk := a.View(k, k, b, b)
		if err := PotrfUnblocked(akk); err != nil {
			return err
		}
		if k+b < n {
			rest := n - k - b
			aik := a.View(k+b, k, rest, b)
			// A[i][k] = A[i][k] * L[k][k]^{-T}
			Trsm(Right, Lower, Transpose, 1, akk, aik)
			// trailing update: A[i][j] -= A[i][k] * A[j][k]ᵀ (lower only)
			trail := a.View(k+b, k+b, rest, rest)
			Syrk(Lower, -1, aik, NoTrans, 1, trail)
		}
	}
	return nil
}

// LogDetFromChol returns log|A| given the lower Cholesky factor L of A,
// namely 2·Σ log L_ii.
func LogDetFromChol(l *Mat) float64 {
	var s float64
	for i := 0; i < l.Rows; i++ {
		s += math.Log(l.At(i, i))
	}
	return 2 * s
}
