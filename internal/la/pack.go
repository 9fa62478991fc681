package la

import "sync"

// Packed, cache-blocked GEMM (the BLIS/GotoBLAS structure).
//
// op(A) is partitioned into MC×KC blocks and op(B) into KC×NC blocks; each
// block is packed into a contiguous scratch buffer laid out as micro-panels
// so the innermost kernel streams both operands with unit stride regardless
// of the original transpose/stride. The micro-kernel computes a 4×8 tile of
// C: on amd64 with AVX2+FMA it runs as eight YMM accumulators (see
// microkernel_amd64.s, runtime CPUID-gated); elsewhere a scalar 32-accumulator
// Go loop is used.
//
//	KC×NC panel of B — packed once, reused by every MC block   (L3-sized)
//	MC×KC panel of A — packed per block                        (L2-sized)
//	 4×8  C tile     — register accumulators                   (registers)
//
// Scratch buffers are recycled through a sync.Pool so steady-state likelihood
// iterations allocate nothing.
const (
	gemmMR = 4   // micro-kernel rows (register tile)
	gemmNR = 8   // micro-kernel cols (register tile; two YMM vectors)
	gemmMC = 128 // A-block rows; gemmMC×gemmKC ≈ 256 KiB, L2-resident
	gemmKC = 256 // shared panel depth
	gemmNC = 512 // B-block cols; gemmKC×gemmNC ≈ 1 MiB, L3-resident
)

// smallGemmFlops is the m·n·k product below which packing overhead outweighs
// the micro-kernel's gains and the naive loops win.
const smallGemmFlops = 32 * 32 * 32

// FMAKernelEnabled reports whether the AVX2+FMA assembly micro-kernel is in
// use on this machine (false on non-amd64 or when the CPU/OS lacks AVX2+FMA
// support). Benchmark reports record it so numbers are comparable.
func FMAKernelEnabled() bool { return useFMAKernel }

type gemmBufs struct {
	a []float64 // packed MC×KC block, micro-panels of gemmMR rows
	b []float64 // packed KC×NC block, micro-panels of gemmNR cols
}

var gemmPool = sync.Pool{New: func() any {
	return &gemmBufs{
		a: make([]float64, gemmMC*gemmKC),
		b: make([]float64, gemmKC*gemmNC),
	}
}}

// gemmAcc accumulates C += alpha*op(A)*op(B) (alpha ≠ 0, beta already
// applied by the caller), routing between the naive loops and the packed
// kernel on problem size.
func gemmAcc(alpha float64, a *Mat, ta Trans, b *Mat, tb Trans, c *Mat) {
	m, k := opDims(a, ta)
	_, n := opDims(b, tb)
	if m < gemmMR || n < gemmNR || m*n*k < smallGemmFlops {
		refGemmAcc(alpha, a, ta, b, tb, c)
		return
	}
	gemmPacked(alpha, a, ta, b, tb, c, wholeC)
}

// part names the elements of C a packed product updates: all of them, or
// only those on and below (above) the diagonal, as Syrk does.
type part int

const (
	wholeC part = iota
	lowerC
	upperC
)

// gemmPacked is the packed body of gemmAcc, for any shape. An element of C
// receives alpha times the fused sum over each KC-deep slab of k in turn,
// and the micro-kernel zero-pads partial tiles, so what one element gets
// depends on its row of op(A) and its column of op(B) alone — not on the
// shape of C or where in it the element sits. Trsm's slice independence
// rests on that.
func gemmPacked(alpha float64, a *Mat, ta Trans, b *Mat, tb Trans, c *Mat, p part) {
	m, k := opDims(a, ta)
	_, n := opDims(b, tb)
	bufs := gemmPool.Get().(*gemmBufs)
	defer gemmPool.Put(bufs)
	for jc := 0; jc < n; jc += gemmNC {
		nc := min(gemmNC, n-jc)
		for pc := 0; pc < k; pc += gemmKC {
			kc := min(gemmKC, k-pc)
			packB(bufs.b, b, tb, pc, jc, kc, nc)
			for ic := 0; ic < m; ic += gemmMC {
				mc := min(gemmMC, m-ic)
				if p == lowerC && ic+mc <= jc || p == upperC && jc+nc <= ic {
					continue // the block lies wholly in the other triangle
				}
				packA(bufs.a, a, ta, ic, pc, mc, kc)
				macroKernel(alpha, bufs.a, bufs.b, c, ic, jc, mc, nc, kc, p)
			}
		}
	}
}

// packA packs op(A)[ic:ic+mc, pc:pc+kc] into micro-panels of gemmMR rows:
// buf[panel*kc*MR + p*MR + r] = op(A)[ic+panel*MR+r, pc+p], zero-padding the
// last panel's missing rows so the micro-kernel never branches.
func packA(buf []float64, a *Mat, ta Trans, ic, pc, mc, kc int) {
	idx := 0
	for i0 := 0; i0 < mc; i0 += gemmMR {
		rows := min(gemmMR, mc-i0)
		panel := buf[idx : idx+kc*gemmMR]
		if rows < gemmMR {
			for i := range panel {
				panel[i] = 0
			}
		}
		if ta == NoTrans {
			for r := 0; r < rows; r++ {
				src := a.Row(ic + i0 + r)[pc : pc+kc]
				for p, v := range src {
					panel[p*gemmMR+r] = v
				}
			}
		} else {
			// op(A)[i, p] = a[pc+p, ic+i]: read contiguous row segments of a.
			for p := 0; p < kc; p++ {
				src := a.Row(pc + p)[ic+i0 : ic+i0+rows]
				copy(panel[p*gemmMR:p*gemmMR+rows], src)
			}
		}
		idx += kc * gemmMR
	}
}

// packB packs op(B)[pc:pc+kc, jc:jc+nc] into micro-panels of gemmNR columns:
// buf[panel*kc*NR + p*NR + c] = op(B)[pc+p, jc+panel*NR+c], zero-padded like
// packA.
func packB(buf []float64, b *Mat, tb Trans, pc, jc, kc, nc int) {
	idx := 0
	for j0 := 0; j0 < nc; j0 += gemmNR {
		cols := min(gemmNR, nc-j0)
		panel := buf[idx : idx+kc*gemmNR]
		if cols < gemmNR {
			for i := range panel {
				panel[i] = 0
			}
		}
		if tb == NoTrans {
			for p := 0; p < kc; p++ {
				src := b.Row(pc + p)[jc+j0 : jc+j0+cols]
				copy(panel[p*gemmNR:p*gemmNR+cols], src)
			}
		} else {
			// op(B)[p, j] = b[jc+j, pc+p]: read contiguous row segments of b.
			for c := 0; c < cols; c++ {
				src := b.Row(jc + j0 + c)[pc : pc+kc]
				for p, v := range src {
					panel[p*gemmNR+c] = v
				}
			}
		}
		idx += kc * gemmNR
	}
}

// macroKernel runs the 4×8 micro-kernel over every register tile of the
// packed mc×nc block that holds an element of part p and scatters the
// alpha-scaled results into C at (ic, jc): whole rows of a tile, or, in a
// tile the diagonal crosses, the stretch of each row on p's side of it.
func macroKernel(alpha float64, pa, pb []float64, c *Mat, ic, jc, mc, nc, kc int, p part) {
	var acc [gemmMR * gemmNR]float64
	for jr := 0; jr < nc; jr += gemmNR {
		bp := pb[(jr/gemmNR)*kc*gemmNR:]
		j0, cols := jc+jr, min(gemmNR, nc-jr)
		for ir := 0; ir < mc; ir += gemmMR {
			i0, rows := ic+ir, min(gemmMR, mc-ir)
			if p == lowerC && i0+rows <= j0 || p == upperC && j0+cols <= i0 {
				continue
			}
			ap := pa[(ir/gemmMR)*kc*gemmMR:]
			if useFMAKernel && kc > 0 {
				microKernelFMA(kc, &ap[0], &bp[0], &acc)
			} else {
				microKernelGeneric(kc, ap, bp, &acc)
			}
			for r := 0; r < rows; r++ {
				lo, hi := 0, cols
				switch p {
				case lowerC:
					hi = min(cols, i0+r-j0+1)
				case upperC:
					lo = max(0, i0+r-j0)
				}
				if lo >= hi {
					continue
				}
				dst := c.Row(i0 + r)[j0+lo : j0+hi]
				src := acc[r*gemmNR+lo:]
				for cc := range dst {
					dst[cc] += alpha * src[cc]
				}
			}
		}
	}
}

// microKernelGeneric computes acc = Σ_p a(:,p)·b(p,:) over the packed
// panels — the portable scalar fallback for the assembly micro-kernel. The
// 4×8 tile is processed as two 4×4 halves to limit register pressure.
func microKernelGeneric(kc int, ap, bp []float64, acc *[gemmMR * gemmNR]float64) {
	var (
		c00, c01, c02, c03 float64
		c10, c11, c12, c13 float64
		c20, c21, c22, c23 float64
		c30, c31, c32, c33 float64
	)
	for p, ia, ib := 0, 0, 0; p < kc; p, ia, ib = p+1, ia+gemmMR, ib+gemmNR {
		a0, a1, a2, a3 := ap[ia], ap[ia+1], ap[ia+2], ap[ia+3]
		b0, b1, b2, b3 := bp[ib], bp[ib+1], bp[ib+2], bp[ib+3]
		c00 += a0 * b0
		c01 += a0 * b1
		c02 += a0 * b2
		c03 += a0 * b3
		c10 += a1 * b0
		c11 += a1 * b1
		c12 += a1 * b2
		c13 += a1 * b3
		c20 += a2 * b0
		c21 += a2 * b1
		c22 += a2 * b2
		c23 += a2 * b3
		c30 += a3 * b0
		c31 += a3 * b1
		c32 += a3 * b2
		c33 += a3 * b3
	}
	acc[0], acc[1], acc[2], acc[3] = c00, c01, c02, c03
	acc[8], acc[9], acc[10], acc[11] = c10, c11, c12, c13
	acc[16], acc[17], acc[18], acc[19] = c20, c21, c22, c23
	acc[24], acc[25], acc[26], acc[27] = c30, c31, c32, c33
	c00, c01, c02, c03 = 0, 0, 0, 0
	c10, c11, c12, c13 = 0, 0, 0, 0
	c20, c21, c22, c23 = 0, 0, 0, 0
	c30, c31, c32, c33 = 0, 0, 0, 0
	for p, ia, ib := 0, 0, 0; p < kc; p, ia, ib = p+1, ia+gemmMR, ib+gemmNR {
		a0, a1, a2, a3 := ap[ia], ap[ia+1], ap[ia+2], ap[ia+3]
		b0, b1, b2, b3 := bp[ib+4], bp[ib+5], bp[ib+6], bp[ib+7]
		c00 += a0 * b0
		c01 += a0 * b1
		c02 += a0 * b2
		c03 += a0 * b3
		c10 += a1 * b0
		c11 += a1 * b1
		c12 += a1 * b2
		c13 += a1 * b3
		c20 += a2 * b0
		c21 += a2 * b1
		c22 += a2 * b2
		c23 += a2 * b3
		c30 += a3 * b0
		c31 += a3 * b1
		c32 += a3 * b2
		c33 += a3 * b3
	}
	acc[4], acc[5], acc[6], acc[7] = c00, c01, c02, c03
	acc[12], acc[13], acc[14], acc[15] = c10, c11, c12, c13
	acc[20], acc[21], acc[22], acc[23] = c20, c21, c22, c23
	acc[28], acc[29], acc[30], acc[31] = c30, c31, c32, c33
}
