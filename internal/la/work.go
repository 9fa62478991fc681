package la

// Work is a bump arena of float64 and index scratch for kernels that are
// called hundreds of times per factorization with the same few shapes
// (QRThin, SVDThin and their TLR callers). A slice or matrix it hands out
// holds whatever the arena held before — a caller that reads an element
// before writing it clears it first — and stays valid until Reset; Reset
// makes the whole arena reusable, so a steady stream of equal-sized calls
// allocates nothing and clears nothing it is about to overwrite.
//
// A nil *Work allocates from the heap, which is what callers without a
// repeating call pattern pass. A Work must not be shared between goroutines.
type Work struct {
	floats arena[float64]
	ints   arena[int] // pivot orders and permutations
}

type arena[T any] struct {
	buf  []T
	used int
	need int // elements requested since the last reset, served or not
}

func (a *arena[T]) take(n int) []T {
	a.need += n
	if n > len(a.buf)-a.used {
		// Arena full: serve this request from the heap (earlier slices stay
		// valid) and let reset grow the arena to the observed demand.
		return make([]T, n)
	}
	s := a.buf[a.used : a.used+n : a.used+n]
	a.used += n
	return s
}

func (a *arena[T]) reset() {
	if a.need > len(a.buf) {
		a.buf = make([]T, a.need+a.need/4)
	}
	a.used, a.need = 0, 0
}

// Floats returns a slice of length n with unspecified contents.
func (w *Work) Floats(n int) []float64 {
	if w == nil {
		return make([]float64, n)
	}
	return w.floats.take(n)
}

// Ints returns an index slice of length n with unspecified contents.
func (w *Work) Ints(n int) []int {
	if w == nil {
		return make([]int, n)
	}
	return w.ints.take(n)
}

// Mat returns an r×c matrix backed by the arena, its contents unspecified.
func (w *Work) Mat(r, c int) *Mat {
	return &Mat{Rows: r, Cols: c, Stride: c, Data: w.Floats(r * c)}
}

// Reset invalidates everything handed out so far and sizes the arena to
// hold the demand seen since the previous Reset.
func (w *Work) Reset() {
	w.floats.reset()
	w.ints.reset()
}
