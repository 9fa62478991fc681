package la

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// potrfRightLooking is the right-looking blocked Cholesky Potrf ran before
// it took workers, kept as the oracle PotrfParallel must match bit for bit:
// each 64-wide panel factored unblocked, solved below its diagonal block by
// one Trsm and subtracted from the whole trailing matrix by one Syrk.
func potrfRightLooking(a *Mat) error {
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

// spdWithUpper returns an SPD matrix of order n whose strict upper triangle
// holds values Potrf must not read or write: they differ from the lower
// triangle's mirror, and some are NaN.
func spdWithUpper(rng *rand.Rand, n int) *Mat {
	a := randSPD(rng, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := rng.NormFloat64()
			if (i+j)%7 == 0 {
				v = math.NaN()
			}
			a.Set(i, j, v)
		}
	}
	return a
}

// upperUntouched fails unless got's strict upper triangle holds in's bits.
func upperUntouched(t *testing.T, what string, got, in *Mat) {
	t.Helper()
	for i := 0; i < in.Rows; i++ {
		for j := i + 1; j < in.Cols; j++ {
			if g, w := got.At(i, j), in.At(i, j); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("%s: upper (%d,%d) is %v, was %v", what, i, j, g, w)
			}
		}
	}
}

// Every worker count gives the right-looking loop's factor bit for bit, on
// both micro-kernel bodies, at orders on and around the panel, super-panel
// and block edges; the largest take the fork-join branch with several blocks
// per worker.
func TestPotrfBitwiseAnyWorkers(t *testing.T) { bothBodies(t, testPotrfBitwiseAnyWorkers) }

func testPotrfBitwiseAnyWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for _, n := range []int{1, 63, 64, 65, 127, 128, 129, 255, 256, 257, 300, 513, 1000} {
		in := spdWithUpper(rng, n)
		want := in.Clone()
		if err := potrfRightLooking(want); err != nil {
			t.Fatalf("n=%d: oracle: %v", n, err)
		}
		upperUntouched(t, fmt.Sprintf("oracle n=%d", n), want, in)
		for _, w := range []int{1, 2, 3, 7} {
			got := in.Clone()
			if err := PotrfParallel(got, w); err != nil {
				t.Fatalf("n=%d workers=%d: %v", n, w, err)
			}
			sameBits(t, fmt.Sprintf("n=%d workers=%d", n, w), got, want)
		}
	}
}

// A factor taken in place inside a larger matrix, as a diagonal tile is:
// the schedule reads and writes through the view's stride only.
func TestPotrfBitwiseOnView(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	const n, pad = 420, 13
	in := spdWithUpper(rng, n+pad)
	want := in.Clone()
	if err := potrfRightLooking(want.View(pad, pad, n, n)); err != nil {
		t.Fatal(err)
	}
	got := in.Clone()
	if err := PotrfParallel(got.View(pad, pad, n, n), 3); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n+pad; i++ {
		for j := 0; j < n+pad; j++ {
			src := want
			if i < pad || j < pad || j > i {
				src = in
			}
			if math.Float64bits(got.At(i, j)) != math.Float64bits(src.At(i, j)) {
				t.Fatalf("element (%d,%d) = %v, want %v", i, j, got.At(i, j), src.At(i, j))
			}
		}
	}
}

// A matrix that stops being positive definite in its third panel, or in a
// later super-panel after the workers have run, fails with the oracle's
// error — pivot and value — at every worker count, and leaves no goroutine
// behind.
func TestPotrfErrorAnyWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	for _, c := range []struct{ n, bad int }{{200, 150}, {700, 150}, {700, 600}} {
		in := randSPD(rng, c.n)
		in.Set(c.bad, c.bad, -1)
		want := potrfRightLooking(in.Clone())
		if want == nil {
			t.Fatalf("n=%d: oracle factored a matrix with a negative diagonal", c.n)
		}
		for _, w := range []int{1, 2, 3, 7} {
			before := runtime.NumGoroutine()
			err := PotrfParallel(in.Clone(), w)
			if err == nil || err.Error() != want.Error() {
				t.Fatalf("n=%d bad=%d workers=%d: err %v, want %v", c.n, c.bad, w, err, want)
			}
			// A joined worker may still be on its way out after its Done.
			after := runtime.NumGoroutine()
			for end := time.Now().Add(time.Second); after > before && time.Now().Before(end); after = runtime.NumGoroutine() {
				time.Sleep(time.Millisecond)
			}
			if after > before {
				t.Fatalf("n=%d bad=%d workers=%d: %d goroutines before, %d after", c.n, c.bad, w, before, after)
			}
		}
	}
}
