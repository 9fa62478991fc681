package la

import "math"

// Householder QR for the tall panels of TLR arithmetic: the sketches of the
// randomized compressor and the stacked nb×K factors of a general
// recompression (128×56 at nb = 128), several hundred per factorization. Two
// choices make it fast on a row-major Mat. The factorization runs on the
// transposed copy, so a reflector (a column of A below the diagonal) and
// every column it updates are contiguous slices. And it is blocked in the
// compact-WY form H₁⋯H_b = I − V·T·Vᵀ (Schreiber & Van Loan): only a
// qrBlock-wide panel is factored with vector operations; the update of the
// trailing columns and the formation of Q are matrix products, which the
// packed FMA Gemm runs several times faster than any vector loop.

// qrBlock is the panel width: the share of the arithmetic left in vector
// operations is about qrBlock/min(m, n), and the Gemm calls have inner
// dimension qrBlock.
const qrBlock = 16

// QRThin computes a thin QR factorization of the m×n matrix a (m ≥ n is not
// required; k = min(m, n) columns of Q are produced): a = Q·R with Q m×k
// having orthonormal columns and R k×n upper triangular. a is not modified.
// Results and temporaries come from w and live until w.Reset (nil w: heap).
func QRThin(w *Work, a *Mat) (q, r *Mat) {
	cntQr.Inc()
	m, n := a.Rows, a.Cols
	k := min(m, n)
	if k == 0 {
		return w.Mat(m, 0), w.Mat(0, n)
	}
	wt := w.Mat(n, m)
	wt.transposeFrom(a)
	return qrT(w, wt)
}

// qrT is QRThin of the matrix held transposed in wt, neither of whose sizes
// is 0; wt ends as R above its diagonal and reflector tails below.
func qrT(w *Work, wt *Mat) (q, r *Mat) {
	n, m := wt.Rows, wt.Cols
	k := min(m, n)
	// Row j of vt is reflector j in full: zeros, an explicit 1 at j, the
	// tail. tm holds one upper-triangular T per panel, rows j0..j0+b.
	vt := w.Mat(k, m)
	tm := w.Mat(k, qrBlock)
	tau := w.Floats(k)
	s1 := w.Floats(max(n, k) * qrBlock)
	s2 := w.Floats(max(n, k) * qrBlock)

	for j0 := 0; j0 < k; j0 += qrBlock {
		b := min(qrBlock, k-j0)
		for j := j0; j < j0+b; j++ {
			col := wt.Row(j)[j:]
			tau[j] = house(col)
			clear(vt.Row(j)[j0:j]) // the panel reads row j from column j0
			v := vt.Row(j)[j:]
			v[0] = 1
			copy(v[1:], col[1:])
			if tau[j] == 0 {
				continue
			}
			for c := j + 1; c < j0+b; c++ {
				reflect(v, tau[j], wt.Row(c)[j:])
			}
		}
		t := tm.View(j0, 0, b, b)
		formT(t, vt, j0, tau[j0:j0+b])
		if nc := n - (j0 + b); nc > 0 {
			// Trailing columns C ← (I − V·T·Vᵀ)ᵀ·C, transposed:
			// Cᵀ ← Cᵀ − ((Cᵀ·V)·T)·Vᵀ.
			vp := vt.View(j0, j0, b, m-j0)
			ct := wt.View(j0+b, j0, nc, m-j0)
			w1, w2 := NewMatFrom(nc, b, s1[:nc*b]), NewMatFrom(nc, b, s2[:nc*b])
			Gemm(1, ct, NoTrans, vp, Transpose, 0, w1)
			Gemm(1, w1, NoTrans, t, NoTrans, 0, w2)
			Gemm(-1, w2, NoTrans, vp, NoTrans, 1, ct)
		}
	}

	r = leadingRowsOfR(w, wt, k, nil)

	// Q = H₁⋯H_k·[I; 0], panels last to first. Before panel j0 is applied,
	// rows ≥ j0 of Q are zero left of column j0, so only the block from
	// (j0, j0) on is touched.
	q = w.Mat(m, k)
	clear(q.Data)
	for j := 0; j < k; j++ {
		q.Data[j*k+j] = 1
	}
	for j0 := (k - 1) / qrBlock * qrBlock; j0 >= 0; j0 -= qrBlock {
		b := min(qrBlock, k-j0)
		kc := k - j0
		vp := vt.View(j0, j0, b, m-j0)
		qs := q.View(j0, j0, m-j0, kc)
		w1, w2 := NewMatFrom(b, kc, s1[:b*kc]), NewMatFrom(b, kc, s2[:b*kc])
		Gemm(1, vp, NoTrans, qs, NoTrans, 0, w1)
		Gemm(1, tm.View(j0, 0, b, b), NoTrans, w1, NoTrans, 0, w2)
		Gemm(-1, vp, Transpose, w2, NoTrans, 1, qs)
	}
	return q, r
}

// leadingRowsOfR copies the first k rows of the upper-triangular R out of the
// transposed compact storage wt (column c of R in wt[c][:c+1]) into a
// row-major k×n matrix. With a permutation, column c lands in column perm[c]:
// the rows of R·Pᵀ for a pivoted factorization X·P = Q·R.
func leadingRowsOfR(w *Work, wt *Mat, k int, perm []int) *Mat {
	n := wt.Rows
	r := w.Mat(k, n)
	clear(r.Data)
	for c := 0; c < n; c++ {
		to := c
		if perm != nil {
			to = perm[c]
		}
		for i, v := range wt.Row(c)[:min(c+1, k)] {
			r.Data[i*n+to] = v
		}
	}
	return r
}

// house overwrites x = (x₀, tail) with (β, v tail) and returns τ such that
// H = I − τ·v·vᵀ, v = (1, v tail), maps x to (β, 0, …) — LAPACK's dlarfg.
// τ = 0 (H = I) when the tail is already zero. The norm is a plain sum of
// squares where that sum lies well inside the exponent range and dnrm2's
// scaled one otherwise, and a vector whose norm is near the underflow
// threshold is reflected scaled up by an exact power of two, so that H is
// orthogonal for entries of any magnitude.
func house(x []float64) float64 {
	tail := x[1:]
	ss := dot(tail, tail)
	x0 := x[0]
	norm := math.Sqrt(x0*x0 + ss)
	if !(ss > 0x1p-900 && norm < 0x1p450) {
		xn := Nrm2(tail)
		if xn == 0 {
			return 0
		}
		if norm = math.Hypot(x0, xn); norm < 0x1p-900 {
			for i := range x {
				x[i] *= 0x1p600
			}
			tau := house(x)
			x[0] *= 0x1p-600
			return tau
		}
	}
	beta := -math.Copysign(norm, x0)
	inv := 1 / (x0 - beta)
	for i := range tail {
		tail[i] *= inv
	}
	x[0] = beta
	return (beta - x0) / beta
}

// reflect applies x ← (I − τ·v·vᵀ)·x; v carries its leading 1 explicitly.
func reflect(v []float64, tau float64, x []float64) {
	axpy(-tau*dot(v, x), v, x)
}

// formT overwrites the b×b t with the upper-triangular compact-WY factor of
// the reflectors in rows j0..j0+b of vt: T[i][i] = τᵢ and
// T[:i, i] = −τᵢ·T[:i, :i]·(V[:, :i]ᵀ·vᵢ).
func formT(t, vt *Mat, j0 int, tau []float64) {
	var z [qrBlock]float64
	for i := range tau {
		clear(t.Row(i))
	}
	for i, ti := range tau {
		t.Row(i)[i] = ti
		if ti == 0 {
			continue
		}
		vi := vt.Row(j0 + i)[j0+i:]
		for l := 0; l < i; l++ {
			z[l] = -ti * dot(vt.Row(j0 + l)[j0+i:], vi)
		}
		for l := 0; l < i; l++ {
			tl := t.Row(l)
			var s float64
			for p := l; p < i; p++ {
				s += tl[p] * z[p]
			}
			tl[i] = s
		}
	}
}

// dot and axpy are Dot and Axpy for slices whose lengths the caller has
// already matched. The reflector and rotation loops are short (tens to a few
// hundred elements): from vecMin elements on they run as AVX2+FMA assembly
// where the CPU has it (microkernel_amd64.s, the gate Gemm's micro-kernel
// uses), and otherwise unrolled four ways in Go, since a single accumulator
// would serialize them on the latency of the add. The two bodies round
// differently (the assembly fuses each multiply-add and sums in a different
// order); which one runs depends on the machine and the length alone. They
// are kept apart from the exported pair, which the dense backends also call:
// unrolling that pair in place changed the rounding of every backend's
// quadratic form and measured 4 % slower on the full-tile workload.
const vecMin = 8

func dot(x, y []float64) float64 {
	if useFMAKernel && len(x) >= vecMin {
		y = y[:len(x)]
		return dotFMA(&x[0], &y[0], len(x))
	}
	var s0, s1, s2, s3 float64
	for len(x) >= 4 && len(y) >= 4 {
		s0 += x[0] * y[0]
		s1 += x[1] * y[1]
		s2 += x[2] * y[2]
		s3 += x[3] * y[3]
		x, y = x[4:], y[4:]
	}
	for i, v := range x {
		s0 += v * y[i]
	}
	return (s0 + s1) + (s2 + s3)
}

func axpy(alpha float64, x, y []float64) {
	if useFMAKernel && len(x) >= vecMin {
		y = y[:len(x)]
		axpyFMA(alpha, &x[0], &y[0], len(x))
		return
	}
	for len(x) >= 4 && len(y) >= 4 {
		y[0] += alpha * x[0]
		y[1] += alpha * x[1]
		y[2] += alpha * x[2]
		y[3] += alpha * x[3]
		x, y = x[4:], y[4:]
	}
	for i, v := range x {
		y[i] += alpha * v
	}
}
