// Package tlr implements the HiCMA substitute: Tile Low-Rank compressed
// tiles, two compression backends (randomized SVD, the one every session
// runs, and truncated SVD, the accuracy reference), low-rank addition with
// recompression, and the TLR Cholesky factorization with its triangular
// solves and log-determinant (paper §V).
//
// A TLR matrix stores dense diagonal tiles and each off-diagonal tile (i, j)
// as a product U·Vᵀ with per-tile rank k chosen so the compression error is
// below a user-defined accuracy threshold. The Cholesky factorization keeps
// that threshold by compressing each factor tile once, after subtracting its
// Schur update exactly (gen.go); the low-rank addition with recompression
// (algebra.go) keeps it for HODLR's updates.
//
// A tile is a pure function of the geometry, θ and its seed: every
// compression goes through a Compressor, a function of the dense block, tol,
// the tile's seed and a rank hint, and GenSpec.compress passes tileSeed(i, j)
// and, in the factorization, the rank of the final tile (i, j−1), so a
// randomized backend compresses tile (i, j) to the same bits whatever the
// worker count or execution order.
package tlr

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/la"
	"repro/internal/obs"
	"repro/internal/rng"
)

// cntRecompress counts recompressions — every low-rank update of a
// compressed tile, structured or general. The TLR Cholesky runs none: it
// compresses each tile once.
var cntRecompress = obs.GetCounter("tlr.recompress.calls")

// workPool holds the scratch arenas of the compression and recompression
// kernels. A kernel takes one for the length of its call, draws every
// temporary (stacked factors, QR and SVD work, cores) from it and returns it
// reset, so the many compressions and updates of a factorization reuse a few
// arenas — one per worker in flight — and only the factors of the resulting
// tile are allocated.
var workPool = sync.Pool{New: func() any { return new(la.Work) }}

func getWork() *la.Work { return workPool.Get().(*la.Work) }

func putWork(w *la.Work) {
	w.Reset()
	workPool.Put(w)
}

// CompTile is a rank-k tile A ≈ U·Vᵀ with U (rows×k) and V (cols×k) — or,
// when the compressed representation cannot meet its accuracy/rank budget,
// an exact dense (DE) tile stored in D with U and V nil (HiCMA's mixed
// dense/low-rank tile structure). Every TLR kernel branches on IsDense, so
// the two representations mix freely within one matrix.
type CompTile struct {
	U, V *la.Mat
	D    *la.Mat
}

// NewDenseTile wraps a dense matrix as an exact (DE) tile. The tile takes
// ownership of d.
func NewDenseTile(d *la.Mat) *CompTile { return &CompTile{D: d} }

// IsDense reports whether the tile stores its entries exactly (DE fallback)
// rather than as low-rank factors.
func (c *CompTile) IsDense() bool {
	return c.D != nil
}

// Rank returns the stored rank (the full min dimension for a dense tile).
func (c *CompTile) Rank() int {
	if c.IsDense() {
		return min(c.D.Rows, c.D.Cols)
	}
	return c.U.Cols
}

// Rows and Cols return the tile's logical dimensions.
func (c *CompTile) Rows() int {
	if c.IsDense() {
		return c.D.Rows
	}
	return c.U.Rows
}

// Cols returns the number of columns of the represented tile.
func (c *CompTile) Cols() int {
	if c.IsDense() {
		return c.D.Cols
	}
	return c.V.Rows
}

// Bytes returns the storage footprint of the representation.
func (c *CompTile) Bytes() int64 {
	if c.IsDense() {
		return int64(c.Rows()) * int64(c.Cols()) * 8
	}
	return int64(c.Rows()+c.Cols()) * int64(c.Rank()) * 8
}

// Dense reconstructs the tile as a dense matrix (a copy in every case).
func (c *CompTile) Dense() *la.Mat {
	out := la.NewMat(c.Rows(), c.Cols())
	c.denseInto(out)
	return out
}

// denseInto writes the tile's entries over d, which has its shape.
func (c *CompTile) denseInto(d *la.Mat) {
	switch {
	case c.IsDense():
		d.CopyFrom(c.D)
	case c.Rank() == 0:
		d.Zero() // exact zero tile
	default:
		la.Gemm(1, c.U, la.NoTrans, c.V, la.Transpose, 0, d)
	}
}

// Clone deep-copies the tile.
func (c *CompTile) Clone() *CompTile {
	if c.IsDense() {
		return &CompTile{D: c.D.Clone()}
	}
	return &CompTile{U: c.U.Clone(), V: c.V.Clone()}
}

// Encode packs the tile as float64 words [rows, cols, rank, U row-major,
// V row-major]; a dense (DE) tile carries the sentinel rank −1 and its full
// row-major payload. It is the one serialization of a CompTile: panel
// messages between ranks ship the words as they are, so a rank-r tile costs
// (rows+cols)·r doubles on the wire, and the out-of-core cache spills the
// same words as bytes.
func (c *CompTile) Encode() []float64 {
	rank, mats := c.Rank(), []*la.Mat{c.U, c.V}
	if c.IsDense() {
		rank, mats = -1, []*la.Mat{c.D}
	}
	out := make([]float64, 3, 3+c.Bytes()/8)
	out[0], out[1], out[2] = float64(c.Rows()), float64(c.Cols()), float64(rank)
	for _, m := range mats {
		for a := 0; a < m.Rows; a++ {
			out = append(out, m.Row(a)...)
		}
	}
	return out
}

// Decode rebuilds the tile in place from Encode's words. The tile takes
// ownership of words (a received message or a spill read is the caller's
// alone); its factors are views into them. Words that Encode could not have produced — a header that
// is not three integers with rank in [−1, min(rows, cols)], or a payload of
// the wrong length — are an error and leave the tile as it was.
func (c *CompTile) Decode(words []float64) error {
	if len(words) < 3 {
		return fmt.Errorf("tlr: decode tile: %d words, no header", len(words))
	}
	for _, h := range words[:3] {
		if !(h >= -1 && h <= math.MaxInt32) || h != math.Trunc(h) {
			return fmt.Errorf("tlr: decode tile: header %v", words[:3])
		}
	}
	rows, cols, rank := int(words[0]), int(words[1]), int(words[2])
	if rows < 0 || cols < 0 || rank > min(rows, cols) {
		return fmt.Errorf("tlr: decode tile: header %v", words[:3])
	}
	payload := words[3:]
	// Every factor is at most MaxInt32 squared words, so int64 holds the sums.
	want := int64(rows) * int64(cols)
	if rank >= 0 {
		want = (int64(rows) + int64(cols)) * int64(rank)
	}
	if int64(len(payload)) != want {
		return fmt.Errorf("tlr: decode tile: %dx%d rank %d needs %d payload words, got %d", rows, cols, rank, want, len(payload))
	}
	*c = CompTile{}
	if rank < 0 {
		c.D = la.NewMatFrom(rows, cols, payload)
		return nil
	}
	c.U = la.NewMatFrom(rows, rank, payload[:rows*rank:rows*rank])
	c.V = la.NewMatFrom(cols, rank, payload[rows*rank:])
	return nil
}

// Compressor turns a dense tile into a CompTile with Frobenius-relative
// error ≈ tol: ‖A − UVᵀ‖_F ≤ tol·‖A‖_F. seed names the tile (tileSeed): a
// randomized backend draws from a stream of that seed alone, so a tile
// compresses to the same bits at any worker count and in any execution
// order. hint is a guess of the tile's rank, 0 for none; it sizes a
// randomized backend's first sketch and is an input like seed, so a caller
// passes one that is itself a pure function of the tile. CompressSVD ignores
// both.
type Compressor func(a *la.Mat, tol float64, seed uint64, hint int) *CompTile

// tileSeed is the seed of tile (i, j) — or of HODLR's block (lo, hi): a
// SplitMix64-style mix of the two coordinates that rng.New runs through
// SplitMix64 again, so nearby tiles land on well-separated states.
func tileSeed(i, j int) uint64 {
	return uint64(i)*0x9e3779b97f4a7c15 + uint64(j)*0xbf58476d1ce4e5b9 + 0x2545f4914f6cdd1d
}

// frobRank returns the smallest k whose Frobenius tail is below tol·‖A‖_F,
// given the (descending) singular values: at least 1 for any non-zero
// spectrum, 0 for an exact zero tile (which is then stored without factors).
func frobRank(s []float64, tol float64) int {
	var total float64
	for _, v := range s {
		total += v * v
	}
	if total == 0 {
		return 0
	}
	return tailRank(s, tol*tol*total)
}

// tailRank returns the smallest k ≥ 1 (0 for an empty spectrum) whose tail
// Σ_{i≥k} s_i² stays within budget. The tail is accumulated from the
// smallest singular values upward, so a budget near ε times the mass is not
// drowned in the rounding of two large sums.
func tailRank(s []float64, budget float64) int {
	var tail float64
	k := len(s)
	for k > 1 {
		sv := s[k-1]
		if tail+sv*sv > budget {
			break
		}
		tail += sv * sv
		k--
	}
	return k
}

// fromSVD assembles U·Vᵀ = (U_k·Σ_k)·V_kᵀ from a thin SVD truncated at k, in
// freshly allocated factors (u and v may be arena scratch).
func fromSVD(u *la.Mat, s []float64, v *la.Mat, k int) *CompTile {
	cu := la.NewMat(u.Rows, k)
	cv := la.NewMat(v.Rows, k)
	for i := 0; i < u.Rows; i++ {
		ui, ci := u.Row(i), cu.Row(i)
		for j := range ci {
			ci[j] = ui[j] * s[j]
		}
	}
	for i := 0; i < v.Rows; i++ {
		copy(cv.Row(i), v.Row(i))
	}
	return &CompTile{U: cu, V: cv}
}

// CompressSVD compresses via a thin SVD of the whole tile — the accuracy
// reference among the backends. No session runs it; tests, Fig. 1's rank
// map, the rank model's calibration and the compressor ablation do.
func CompressSVD(a *la.Mat, tol float64, _ uint64, _ int) *CompTile {
	w := getWork()
	defer putWork(w)
	u, s, v := la.SVDThin(w, a, tol)
	return fromSVD(u, s, v, frobRank(s, tol))
}

// rsvdSeed is mixed into every tile seed of CompressRSVD's streams.
const rsvdSeed = 0x5eed

// cntRSVDRounds counts CompressRSVD's sketch rounds: one per tile whose
// first sketch holds its range, more for each that falls short.
var cntRSVDRounds = obs.GetCounter("tlr.rsvd.rounds")

// The sketch is sketchMargin columns wider than the rank guess, and a guess
// is never below minGuess columns.
const (
	sketchMargin = 10
	minGuess     = 8
)

// CompressRSVD compresses via randomized range finding (Halko/Martinsson/
// Tropp) with oversampling, then an exact SVD of the small projected matrix.
// Much cheaper than full SVD when the numerical rank is far below the tile
// size. The sketch Ω and the residual probes are Rademacher signs drawn from
// rng.New(rsvdSeed ^ seed).
//
// hint is a guess of the rank, 0 for none: the first sketch has
// max(hint, 8) columns plus the margin, and a sketch that falls short grows
// by half its guess (at least 8 columns). The factorization passes the rank
// of the tile's left neighbour in its tile row, which under a space-filling
// ordering is of the order of the tile's own, mostly somewhat below it. The
// hint changes how many rounds a tile takes, and so its bits, never the
// accuracy, which the probe test below certifies.
//
// Each round draws only the new columns, multiplies them by A, orthogonalizes
// them against the accepted basis Q and appends them; nothing of the earlier
// rounds is recomputed, nor are ‖A‖_F² and the probes, whose residuals lose
// the new block alone. The projected matrix QᵀA is factored once, after the
// range is accepted. There is no power iteration: the range is accepted on
// the probe certificate, and a short sketch only costs another round.
func CompressRSVD(a *la.Mat, tol float64, seed uint64, hint int) *CompTile {
	gen := rng.New(rsvdSeed ^ seed)
	m, n := a.Rows, a.Cols
	maxK := min(m, n)
	// The range is grown to a tighter target than tol, so that the
	// residual it leaves is a small part of the error budget.
	sketchTol := tol / 4
	ws := getWork()
	defer putWork(ws)

	var aF2 float64
	for i := 0; i < m; i++ {
		for _, x := range a.Row(i) {
			aF2 += x * x
		}
	}
	// Randomized residual estimate: for ω with i.i.d. zero-mean,
	// unit-variance entries (signs here), E‖(A − QQᵀA)ω‖² = ‖A − QQᵀA‖_F².
	// A direct difference in vector space resolves residuals far below the
	// ε_machine floor that a Frobenius-mass comparison would hit. The columns
	// of res start as A·ω_p and lose their component along every block
	// appended to Q.
	const probes = 6
	om := ws.Mat(n, probes)
	signs(gen, om.Data)
	res := ws.Mat(m, probes)
	la.Gemm(1, a, la.NoTrans, om, la.NoTrans, 0, res)

	// Grow the sketch until the projected approximation captures the
	// Frobenius mass to tol, or we hit full rank. q is the accepted part of
	// the basis, copied each round into a matrix exactly nw columns wider.
	q := ws.Mat(m, 0)
	var resEst float64
	for guess := max(hint, minGuess); ; guess += max(minGuess, guess/2) {
		cntRSVDRounds.Inc()
		nw := min(guess+sketchMargin, maxK) - q.Cols
		om = ws.Mat(n, nw)
		signs(gen, om.Data)
		y := ws.Mat(m, nw)
		la.Gemm(1, a, la.NoTrans, om, la.NoTrans, 0, y)
		projectOut(ws, y, q)
		qn, _ := la.QRThin(ws, y)
		if q.Cols > 0 {
			// Once q holds most of A, what is left of some columns of y is
			// rounding noise, and the basis vectors QR returns for those are
			// arbitrary — not orthogonal to q. Project the basis itself and
			// orthogonalize again.
			projectOut(ws, qn, q)
			qn, _ = la.QRThin(ws, qn)
		}
		wider := ws.Mat(m, q.Cols+nw)
		wider.View(0, 0, m, q.Cols).CopyFrom(q)
		wider.View(0, q.Cols, m, nw).CopyFrom(qn)
		q = wider
		projectOut(ws, res, qn)

		resEst = 0
		for _, x := range res.Data {
			resEst += x * x
		}
		resEst /= probes
		if resEst <= 0.25*sketchTol*sketchTol*aF2 || q.Cols >= maxK {
			break
		}
	}

	// B = Qᵀ A  (w×n)
	b := ws.Mat(q.Cols, n)
	la.Gemm(1, q, la.Transpose, a, la.NoTrans, 0, b)
	ub, s, v := la.SVDThin(ws, b, tol)
	// ‖A − Q·B_k‖_F² = ‖A − QQᵀA‖_F² + ‖B − B_k‖_F²: B's tail may spend
	// what of tol²·‖A‖_F² the accepted residual estimate leaves.
	k := 0
	if aF2 > 0 {
		k = tailRank(s, tol*tol*aF2-resEst)
	}
	// U = Q · Ub_k
	u := ws.Mat(m, k)
	la.Gemm(1, q, la.NoTrans, ub.View(0, 0, ub.Rows, k), la.NoTrans, 0, u)
	return fromSVD(u, s, v, k)
}

// signs fills x with independent Rademacher signs ±1, one bit of gen's
// stream each, 64 to a draw.
func signs(gen *rng.Rand, x []float64) {
	const one = 0x3ff0000000000000 // the bits of 1.0; bit 63 is the sign
	for len(x) > 0 {
		bits := gen.Uint64()
		c := x[:min(len(x), 64)]
		for i := range c {
			c[i] = math.Float64frombits(one | bits<<63)
			bits >>= 1
		}
		x = x[len(c):]
	}
}

// projectOut removes from the columns of y their component in the span of
// q's orthonormal columns: y ← y − q·(qᵀ·y).
func projectOut(ws *la.Work, y, q *la.Mat) {
	if q.Cols == 0 {
		return
	}
	c := ws.Mat(q.Cols, y.Cols)
	la.Gemm(1, q, la.Transpose, y, la.NoTrans, 0, c)
	la.Gemm(-1, q, la.NoTrans, c, la.NoTrans, 1, y)
}

// recompress returns the tile U·Vᵀ truncated to tol (u and v have K ≥ 1
// columns); every temporary comes from w.
func recompress(w *la.Work, u, v *la.Mat, tol float64) *CompTile {
	cntRecompress.Inc()
	qu, ru := la.QRThin(w, u)
	qv, rv := la.QRThin(w, v)
	core := w.Mat(ru.Rows, rv.Rows)
	la.Gemm(1, ru, la.NoTrans, rv, la.Transpose, 0, core)
	// A product that cancels (C − C) leaves a core of rounding noise, which
	// has no scale of its own for a relative tolerance to act on: whatever
	// sits below the rounding error of forming Ru·Rvᵀ is an exact zero tile.
	const eps = 0x1p-52
	if core.FrobNorm() <= float64(u.Cols)*eps*ru.FrobNorm()*rv.FrobNorm() {
		return &CompTile{U: la.NewMat(u.Rows, 0), V: la.NewMat(v.Rows, 0)}
	}
	cu, s, cv := la.SVDThin(w, core, tol)
	k := frobRank(s, tol)
	// U' = Qu · (U_k Σ_k), V' = Qv · V_k
	for i := 0; i < cu.Rows; i++ {
		ci := cu.Row(i)[:k]
		for j := range ci {
			ci[j] *= s[j]
		}
	}
	nu := la.NewMat(u.Rows, k)
	nv := la.NewMat(v.Rows, k)
	la.Gemm(1, qu, la.NoTrans, cu.View(0, 0, cu.Rows, k), la.NoTrans, 0, nu)
	la.Gemm(1, qv, la.NoTrans, cv.View(0, 0, cv.Rows, k), la.NoTrans, 0, nv)
	return &CompTile{U: nu, V: nv}
}

// CompressorByName returns the named backend: "svd" (also "") or "rsvd".
// Its one caller is the benchmark module's layer probes; no session picks a
// compressor (every one runs CompressRSVD), and the change that next edits
// that module deletes it.
func CompressorByName(name string) (Compressor, error) {
	switch name {
	case "svd", "":
		return CompressSVD, nil
	case "rsvd":
		return CompressRSVD, nil
	}
	return nil, fmt.Errorf("tlr: unknown compressor %q", name)
}
