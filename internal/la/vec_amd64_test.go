//go:build amd64

package la

import (
	"math"
	"math/rand"
	"testing"
)

// scalarBodies runs f with the Go loops of dot, axpy and rotate (and Gemm's
// portable micro-kernel) in place of the assembly.
func scalarBodies(f func()) {
	defer func(fma, zmm bool) { useFMAKernel, useZMMKernel = fma, zmm }(useFMAKernel, useZMMKernel)
	useFMAKernel, useZMMKernel = false, false
	f()
}

// avx2Body runs f on the AVX2 bodies with the AVX-512 ones switched off.
func avx2Body(f func()) {
	defer func(zmm bool) { useZMMKernel = zmm }(useZMMKernel)
	useZMMKernel = false
	f()
}

// eachBody calls f on every body of the micro-kernel the CPU has, with that
// body selected and named: "avx512", "avx2", "go".
func eachBody(f func(name string)) {
	if useZMMKernel {
		f("avx512")
	}
	if useFMAKernel {
		avx2Body(func() { f("avx2") })
	}
	scalarBodies(func() { f("go") })
}

// bothBodies runs f on every body of the micro-kernel the CPU has: "asm" on
// the one CPUID selects, then, where that is the AVX-512 one, "avx2" on the
// AVX2 body that every AVX2 machine without AVX-512 runs, and "go" on the Go
// loops that every other machine runs.
func bothBodies(t *testing.T, f func(t *testing.T)) {
	if useFMAKernel {
		t.Run("asm", f)
	}
	if useZMMKernel {
		avx2Body(func() { t.Run("avx2", f) })
	}
	scalarBodies(func() { t.Run("go", f) })
}

// The AVX-512 and AVX2 bodies give the same bits through the whole level-3
// stack: a 128³ product with B transposed, a Syrk, and a two-worker Cholesky
// of order 300, whose updates end in fringe tiles of 300 mod 8 = 4 rows.
func TestZMMAndAVX2BodiesAgree(t *testing.T) {
	if !useZMMKernel {
		t.Skip("no AVX-512F on this CPU")
	}
	rng := rand.New(rand.NewSource(45))
	const n = 128
	a, b, c0 := randMat(rng, n, n), randMat(rng, n, n), randMat(rng, n, n)
	spd := randSPD(rng, 300)
	run := func() (gemm, syrk, chol *Mat) {
		gemm, syrk, chol = c0.Clone(), c0.Clone(), spd.Clone()
		Gemm(-0.75, a, NoTrans, b, Transpose, 1, gemm)
		Syrk(Lower, -1, a, NoTrans, 1, syrk)
		if err := PotrfParallel(chol, 2); err != nil {
			t.Fatal(err)
		}
		return gemm, syrk, chol
	}
	gemm, syrk, chol := run()
	avx2Body(func() {
		g2, s2, c2 := run()
		sameBits(t, "gemm NT 128³", g2, gemm)
		sameBits(t, "syrk 128³", s2, syrk)
		sameBits(t, "potrf 300 w2", c2, chol)
	})
}

// The assembly bodies of dot, axpy and rotate against the Go loops, for every
// length that reaches each of their steps and tails and at every alignment of
// the first element within a 32-byte vector: agreement to the few ulps by
// which one rounding of a fused multiply-add and a different summation order
// can differ, no element outside the slice touched, and the same bits from a
// repeated call.
func TestVectorKernelsMatchScalar(t *testing.T) {
	if !useFMAKernel {
		t.Skip("no AVX2+FMA on this CPU")
	}
	const eps = 0x1p-52
	const guard = 4
	rng := rand.New(rand.NewSource(31))
	// fresh returns a slice of n random values at element offset off of a
	// buffer whose other elements are a sentinel, and a check that they
	// still are.
	fresh := func(n, off int) ([]float64, func(what string)) {
		buf := make([]float64, off+n+guard)
		for i := range buf {
			buf[i] = -77
		}
		x := buf[off : off+n]
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		return x, func(what string) {
			t.Helper()
			for i, v := range buf {
				if (i < off || i >= off+n) && v != -77 {
					t.Fatalf("%s n=%d off=%d: wrote outside the slice at %d", what, n, off, i-off)
				}
			}
		}
	}
	same := func(what string, n, off int, a, b []float64) {
		t.Helper()
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				t.Fatalf("%s n=%d off=%d: element %d differs between two calls", what, n, off, i)
			}
		}
	}
	for n := 0; n <= 67; n++ {
		for off := 0; off < 4; off++ {
			x, xOK := fresh(n, off)
			y, yOK := fresh(n, (off+1)%4)
			alpha, c, s := rng.NormFloat64(), math.Cos(0.3+float64(n)), math.Sin(0.3+float64(n))

			var want, mag float64
			scalarBodies(func() { want = dot(x, y) })
			for i := range x {
				mag += math.Abs(x[i] * y[i])
			}
			got := dot(x, y)
			if math.Abs(got-want) > 4*eps*mag {
				t.Fatalf("dot n=%d off=%d: %v, scalar %v", n, off, got, want)
			}
			if again := dot(x, y); math.Float64bits(again) != math.Float64bits(got) {
				t.Fatalf("dot n=%d off=%d: %v then %v", n, off, got, again)
			}

			ya, ys, yb := append([]float64(nil), y...), append([]float64(nil), y...), append([]float64(nil), y...)
			scalarBodies(func() { axpy(alpha, x, ys) })
			copy(y, ya)
			axpy(alpha, x, y)
			axpy(alpha, x, yb)
			same("axpy", n, off, y, yb)
			for i := range y {
				if math.Abs(y[i]-ys[i]) > 2*eps*(math.Abs(ya[i])+math.Abs(alpha*x[i])) {
					t.Fatalf("axpy n=%d off=%d: y[%d] = %v, scalar %v", n, off, i, y[i], ys[i])
				}
			}

			xa := append([]float64(nil), x...)
			xs, x2, y2 := append([]float64(nil), xa...), append([]float64(nil), xa...), append([]float64(nil), ya...)
			copy(ys, ya)
			scalarBodies(func() { rotate(c, s, xs, ys) })
			copy(y, ya)
			rotate(c, s, x, y)
			rotate(c, s, x2, y2)
			same("rotate x", n, off, x, x2)
			same("rotate y", n, off, y, y2)
			for i := range x {
				bound := 2 * eps * (math.Abs(xa[i]) + math.Abs(ya[i]))
				if math.Abs(x[i]-xs[i]) > bound || math.Abs(y[i]-ys[i]) > bound {
					t.Fatalf("rotate n=%d off=%d: (%v, %v) at %d, scalar (%v, %v)", n, off, x[i], y[i], i, xs[i], ys[i])
				}
			}
			xOK("x")
			yOK("y")
		}
	}
}

// A NaN or an infinity in one element reaches the dot product and exactly
// that element of an axpy or a rotation, in the vector steps and in the tails.
func TestVectorKernelsPassNonFinite(t *testing.T) {
	if !useFMAKernel {
		t.Skip("no AVX2+FMA on this CPU")
	}
	for _, n := range []int{8, 19, 35, 64, 67} {
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			for p := 0; p < n; p++ {
				x, y := make([]float64, n), make([]float64, n)
				for i := range x {
					x[i], y[i] = float64(i+1), 1/float64(i+1)
				}
				x[p] = bad
				if d := dot(x, y); !(math.IsNaN(bad) && math.IsNaN(d) || d == bad) {
					t.Fatalf("dot n=%d: %v at %d gives %v", n, bad, p, d)
				}
				ya, yr := append([]float64(nil), y...), append([]float64(nil), y...)
				xr := append([]float64(nil), x...)
				axpy(2, x, ya)
				rotate(0.6, 0.8, xr, yr)
				for i := range x {
					finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
					if finite(ya[i]) != (i != p) || finite(xr[i]) != (i != p) || finite(yr[i]) != (i != p) {
						t.Fatalf("n=%d, %v at %d: element %d is axpy %v, rotate (%v, %v)", n, bad, p, i, ya[i], xr[i], yr[i])
					}
				}
			}
		}
	}
}

// QRThin and SVDThin meet the same residual and orthogonality bounds on the
// Go loops as on the assembly, and bidiagonal QR converges on both.
func TestQRSVDPropertiesScalarBodies(t *testing.T) {
	if !useFMAKernel {
		t.Skip("no AVX2+FMA on this CPU: the other tests already ran the Go loops")
	}
	scalarBodies(func() {
		t.Run("QRThin", TestQRThinProperties)
		t.Run("SVDThin", TestSVDThinProperties)
		t.Run("QRPivotThin", TestQRPivotThinProperties)
	})
}
