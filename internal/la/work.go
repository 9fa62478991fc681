package la

// Work is a bump arena of float64 scratch for kernels that are called
// hundreds of times per factorization with the same few shapes (QRThin,
// SVDThin and their TLR callers). Every slice and matrix it hands out is
// zeroed and stays valid until Reset; Reset makes the whole arena reusable,
// so a steady stream of equal-sized calls allocates nothing.
//
// A nil *Work allocates from the heap, which is what callers without a
// repeating call pattern pass. A Work must not be shared between goroutines.
type Work struct {
	buf  []float64
	used int
	need int // floats requested since the last Reset, served or not
}

// Floats returns a zeroed slice of length n.
func (w *Work) Floats(n int) []float64 {
	if w == nil {
		return make([]float64, n)
	}
	w.need += n
	if n > len(w.buf)-w.used {
		// Arena full: serve this request from the heap (earlier slices stay
		// valid) and let Reset grow the arena to the observed demand.
		return make([]float64, n)
	}
	s := w.buf[w.used : w.used+n : w.used+n]
	w.used += n
	clear(s)
	return s
}

// Mat returns a zeroed r×c matrix backed by the arena.
func (w *Work) Mat(r, c int) *Mat {
	return &Mat{Rows: r, Cols: c, Stride: c, Data: w.Floats(r * c)}
}

// Reset invalidates everything handed out so far and sizes the arena to
// hold the demand seen since the previous Reset.
func (w *Work) Reset() {
	if w.need > len(w.buf) {
		w.buf = make([]float64, w.need+w.need/4)
	}
	w.used, w.need = 0, 0
}
