package la

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// Dense Cholesky: one blocked schedule on any number of workers.
//
// Potrf is the right-looking LAPACK dpotrf — 64-wide panels, each factored
// unblocked, solved below its diagonal block by a Right-side Trsm and
// subtracted from the trailing lower triangle by a depth-64 product — with
// its work regrouped so that the trailing matrix is read from memory once
// per four panels instead of once per panel, and shared out over as many
// workers as it is given. Columns are taken potrfSuper at a time (a
// super-panel), in three steps:
//
//  1. the super-panel's diagonal block, by the right-looking loop itself,
//     on the calling goroutine;
//  2. the rows below it, potrfEdge at a time: a chunk solves its part of a
//     panel with the panel's diagonal block and subtracts it from its part of
//     the super-panel's later panels, panel after panel; the finished chunk
//     is also copied out transposed, as the B operand that step 3 reads in
//     place (gemmDirect would pack a transposed B again on every call);
//  3. the trailing lower triangle, potrfEdge×potrfEdge blocks at a time: a
//     block takes the super-panel's panels one after another, in panel order,
//     while it stays in L2.
//
// Steps 2 and 3 hand their chunks and blocks to the workers through an
// atomic counter (ParallelFor) and join before the next step.
//
// Every element receives what the right-looking loop gives it, in the same
// order, from the same kernels. Each panel's update is its own gemmDirect
// product of depth 64, never one product over several panels and never
// Gemm's one-column Gemv route, and gemmDirect gives an element the same
// bits whatever the shape of the block it is computed in and wherever its
// operands lie (packed or in place). A row of a Right-side Trsm depends on
// that row of B alone. So the factor is bit for bit the right-looking loop's
// at every worker count. A pivot is only ever taken in step 1, after every
// earlier step has joined, so a matrix that is not positive definite fails
// at the same pivot with the same error, with no goroutine left running.

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
// potrfSuper is the width of a super-panel, four panels; potrfEdge is the
// height of a row chunk and the edge of a trailing block, whose 128 KiB stay
// in a core's L2 while the super-panel's four updates are applied to it.
// ltStride is the row stride of a transposed chunk: potrfEdge and one
// register tile more, so that the 64 rows of a panel a micro-kernel call
// reads fall in different L1 sets, not in the few a 1 KiB period hits.
const (
	potrfBlockSize = 64
	potrfSuper     = 4 * potrfBlockSize
	potrfEdge      = 128
	ltStride       = potrfEdge + gemmNR
)

// Potrf computes the lower Cholesky factor of a in place on the calling
// goroutine: PotrfParallel with one worker.
func Potrf(a *Mat) error { return PotrfParallel(a, 1) }

// PotrfParallel computes the lower Cholesky factor of a in place with up to
// workers goroutines, by the schedule described at the top of this file:
// the "full-block" MLE baseline of the paper (multithreaded LAPACK dpotrf).
// Only the lower triangle of a is referenced; the strict upper triangle is
// left untouched. The result is bit for bit the same at every worker count.
// A matrix of order potrfSuper or less, or one worker, starts no goroutine.
func PotrfParallel(a *Mat, workers int) error {
	cntPotrf.Inc()
	if a.Rows != a.Cols {
		panic("la: potrf on non-square matrix")
	}
	n := a.Rows
	var lt []float64
	if n > potrfSuper {
		buf := potrfPool.Get().(*[]float64)
		defer potrfPool.Put(buf)
		if need := potrfSuper * ltStride * ((n - potrfSuper + potrfEdge - 1) / potrfEdge); cap(*buf) < need {
			*buf = make([]float64, need)
		}
		lt = *buf
	}
	for k0 := 0; k0 < n; k0 += potrfSuper {
		s := min(potrfSuper, n-k0)
		if err := potrfDiag(a.View(k0, k0, s, s)); err != nil {
			return err
		}
		t0 := k0 + s // first row and column of the trailing matrix
		chunks := (n - t0 + potrfEdge - 1) / potrfEdge
		// Chunk c of the super-panel's rows below its diagonal block, once
		// finished, is also the B operand of trailing block column c: it is
		// kept transposed, s×potrfEdge, so the block updates read it in place.
		chunkT := func(c int) *Mat {
			return &Mat{Rows: s, Cols: min(potrfEdge, n-t0-c*potrfEdge), Stride: ltStride, Data: lt[c*s*ltStride:]}
		}
		ParallelFor(workers, chunks, func(c int) {
			r0 := t0 + c*potrfEdge
			rows := a.View(r0, k0, min(potrfEdge, n-r0), s)
			potrfPanelRows(a.View(k0, k0, s, s), rows)
			chunkT(c).transposeFrom(rows)
		})
		ParallelFor(workers, chunks*(chunks+1)/2, func(t int) {
			bi, bj := lowerBlock(t)
			r0, c0 := t0+bi*potrfEdge, t0+bj*potrfEdge
			p := wholeC
			if bi == bj {
				p = lowerC
			}
			potrfTrailing(a.View(r0, k0, min(potrfEdge, n-r0), s), chunkT(bj), a.View(r0, c0, min(potrfEdge, n-r0), min(potrfEdge, n-c0)), p)
		})
	}
	return nil
}

// potrfPool recycles the transposed super-panel PotrfParallel keeps, so
// that repeated factorizations of one order allocate nothing.
var potrfPool = sync.Pool{New: func() any { return new([]float64) }}

// potrfDiag factors a diagonal block of order at most potrfSuper by the
// right-looking loop over its panels.
func potrfDiag(d *Mat) error {
	n, nb := d.Rows, potrfBlockSize
	for k := 0; k < n; k += nb {
		b := min(nb, n-k)
		dkk := d.View(k, k, b, b)
		if err := PotrfUnblocked(dkk); err != nil {
			return err
		}
		if rest := n - k - b; rest > 0 {
			dik := d.View(k+b, k, rest, b)
			Trsm(Right, Lower, Transpose, 1, dkk, dik)
			Syrk(Lower, -1, dik, NoTrans, 1, d.View(k+b, k+b, rest, rest))
		}
	}
	return nil
}

// potrfPanelRows finishes x, rows of a super-panel below its factored
// diagonal block d: for each panel in turn, solve x's part of it with the
// panel's diagonal block, then subtract its product with d's rows below that
// block from x's part of the later panels.
func potrfPanelRows(d, x *Mat) {
	s := d.Rows
	for k := 0; k < s; k += potrfBlockSize {
		b := min(potrfBlockSize, s-k)
		xk := x.View(0, k, x.Rows, b)
		trsm(Right, Lower, Transpose, d.View(k, k, b, b), xk)
		if later := s - k - b; later > 0 {
			gemmDirect(-1, xk, NoTrans, d.View(k+b, k, later, b), Transpose, x.View(0, k+b, x.Rows, later), wholeC)
		}
	}
}

// potrfTrailing subtracts a super-panel's panels one after another from a
// trailing block c (part p of it): x is the super-panel's rows level with c,
// lt its rows level with c's columns, transposed.
func potrfTrailing(x, lt, c *Mat, p part) {
	for k := 0; k < x.Cols; k += potrfBlockSize {
		b := min(potrfBlockSize, x.Cols-k)
		gemmDirect(-1, x.View(0, k, x.Rows, b), NoTrans, lt.View(k, 0, b, lt.Cols), NoTrans, c, p)
	}
}

// lowerBlock returns the t-th block (i, j), i ≥ j, of a lower triangle
// walked row by row: (0,0), (1,0), (1,1), (2,0), …
func lowerBlock(t int) (i, j int) {
	for (i+1)*(i+2)/2 <= t {
		i++
	}
	return i, t - i*(i+1)/2
}

// ParallelFor runs body(0), …, body(count−1) on up to workers goroutines,
// each taking the next index from an atomic counter, and returns when all
// have returned. With one worker, or one index, it runs them in order on the
// calling goroutine and starts none. Bodies must write disjoint data.
func ParallelFor(workers, count int, body func(i int)) {
	workers = min(workers, count)
	if workers < 2 {
		for i := 0; i < count; i++ {
			body(i)
		}
		return
	}
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	run := func() {
		for i := int(next.Add(1) - 1); i < count; i = int(next.Add(1) - 1) {
			body(i)
		}
	}
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			run()
		}()
	}
	run()
	wg.Wait()
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
