package la

import "sync"

// Register-tiled GEMM (the BLIS/GotoBLAS loop nest), one driver over one
// micro-kernel.
//
// The micro-kernel computes an 8×8 tile of C from a kc-deep stretch of op(A)
// and op(B) read through strides: element (r, p) of op(A) at a[r·ars+p·aps],
// row p of op(B) at b[p·ldb]. It has three bodies, chosen once by CPUID
// (microkernel_amd64.go): on AVX-512F, eight ZMM accumulators, one per row,
// each element of op(A) broadcast by its FMA; on AVX2+FMA, the tile as two
// 4×8 halves in eight YMM accumulators each, the second skipped when a fringe
// tile has four rows or fewer; elsewhere a scalar Go loop over the same two
// halves. Every body gives each element of the tile one chain over p, in p
// order, from zero — fused on both assembly bodies — so the assembly bodies
// give the same bits as each other, and the tile's height changes no bit.
//
// gemmDirect hands the kernel op(A) and op(B) where they lie and packs only
// what it cannot read in place (see there), blocked as
//
//	KC×NC slab of op(B) — reused by every MC block             (L3-sized)
//	MC×KC block of op(A) — reused by every 8-column panel      (L2-sized)
//	  8×8 tile of C      — register accumulators               (registers)
//
// Scratch buffers are recycled through a sync.Pool so steady-state likelihood
// iterations allocate nothing.
const (
	gemmMR = 8   // micro-kernel rows (register tile; one ZMM, or two YMM, per row)
	gemmNR = 8   // micro-kernel cols (register tile)
	gemmMC = 128 // A-block rows; gemmMC×gemmKC ≈ 256 KiB, L2-resident
	gemmKC = 256 // shared panel depth
	gemmNC = 512 // B-block cols; gemmKC×gemmNC ≈ 1 MiB, L3-resident
)

// FMAKernelEnabled reports whether an assembly micro-kernel, AVX-512F or
// AVX2+FMA, is in use on this machine (false on non-amd64 or when the CPU or
// OS lacks AVX2+FMA support): whether products are fused, and so whether
// results have the FMA bits that tests pin.
func FMAKernelEnabled() bool { return useFMAKernel }

type gemmBufs struct {
	a []float64 // op(A)'s packed fringe panel; trsmSmall's transposed rows
	b []float64 // packed KC×NC slab of op(B), micro-panels of gemmNR cols
}

var gemmPool = sync.Pool{New: func() any {
	return &gemmBufs{
		a: make([]float64, gemmMC*gemmKC),
		b: make([]float64, gemmKC*gemmNC),
	}
}}

// part names the elements of C a product updates: all of them, or only those
// on and below (above) the diagonal, as Syrk does.
type part int

const (
	wholeC part = iota
	lowerC
	upperC
)

// gemmDirect accumulates C += alpha·op(A)·op(B) (beta already applied by the
// caller) over part p of C, for any shape, packing only what the micro-kernel
// cannot read in place:
//
//   - op(A) is read where it lies, transposed or not (ars, aps are its row
//     and column strides); only its last m mod 8 rows are packed, zero-padded
//     to a panel of eight.
//   - op(B) is read where it lies when B is not transposed (a row of eight
//     contiguous elements per p); only its last n mod 8 columns are packed,
//     zero-padded to a panel of eight. A transposed B is packed whole.
//
// An element of C receives alpha times one fused chain over each KC-deep
// slab of k in turn (each chain from zero, in p order, whatever the body),
// and partial tiles are zero-padded, so what one element
// gets depends on its row of op(A) and its column of op(B) alone — not on the
// shape of C or where in it the element sits. Gemm's shape independence and
// Trsm's slice independence rest on that. Packing op(A) would not pay: a
// panel of the skinny products TLR runs (m = 128 tile rows, n and k at rank
// size) is read only n/8 ≈ 2–4 times.
func gemmDirect(alpha float64, a *Mat, ta Trans, b *Mat, tb Trans, c *Mat, p part) {
	m, k := opDims(a, ta)
	_, n := opDims(b, tb)
	ars, aps := a.Stride, 1
	if ta == Transpose {
		ars, aps = 1, a.Stride
	}
	mFull := m - m%gemmMR
	bufs := gemmPool.Get().(*gemmBufs)
	defer gemmPool.Put(bufs)
	var acc [gemmMR * gemmNR]float64
	for jc := 0; jc < n; jc += gemmNC {
		nc := min(gemmNC, n-jc)
		nFull := nc - nc%gemmNR
		for pc := 0; pc < k; pc += gemmKC {
			kc := min(gemmKC, k-pc)
			// bufs.b holds all of op(B)'s panels when B is transposed, its
			// fringe panel alone when not; bufs.a holds op(A)'s fringe panel.
			if tb == Transpose {
				packB(bufs.b, b, tb, pc, jc, kc, nc)
			} else if nFull < nc {
				packB(bufs.b, b, tb, pc, jc+nFull, kc, nc-nFull)
			}
			if mFull < m {
				packA(bufs.a, a, ta, mFull, pc, m-mFull, kc)
			}
			for ic := 0; ic < m; ic += gemmMC {
				mc := min(gemmMC, m-ic)
				if p == lowerC && ic+mc <= jc || p == upperC && jc+nc <= ic {
					continue // the block lies wholly in the other triangle
				}
				for jr := 0; jr < nc; jr += gemmNR {
					j0, cols := jc+jr, min(gemmNR, nc-jr)
					bp, ldb := bufs.b[(jr/gemmNR)*kc*gemmNR:], gemmNR
					if tb == NoTrans {
						bp = bufs.b
						if jr < nFull {
							bp, ldb = b.Data[pc*b.Stride+j0:], b.Stride
						}
					}
					for i0 := ic; i0 < ic+mc; i0 += gemmMR {
						rows := min(gemmMR, m-i0)
						if p == lowerC && i0+rows <= j0 || p == upperC && j0+cols <= i0 {
							continue // the tile lies wholly in the other triangle
						}
						if i0 < mFull {
							microKernel(kc, a.Data[i0*ars+pc*aps:], ars, aps, bp, ldb, rows, &acc)
						} else {
							microKernel(kc, bufs.a, 1, gemmMR, bp, ldb, rows, &acc)
						}
						addTile(alpha, &acc, c, i0, j0, rows, cols, p)
					}
				}
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

// addTile adds alpha times the leading rows×cols of a register tile into C at
// (i0, j0): whole rows, or, in a tile the diagonal crosses, the stretch of
// each row on p's side of it.
func addTile(alpha float64, acc *[gemmMR * gemmNR]float64, c *Mat, i0, j0, rows, cols int, p part) {
	whole := p == wholeC || p == lowerC && j0+cols <= i0+1 || p == upperC && i0+rows <= j0+1
	if useFMAKernel && whole && cols == gemmNR {
		_ = c.Row(i0 + rows - 1)[j0+gemmNR-1]
		if useZMMKernel {
			addTileZMM(alpha, acc, &c.Data[i0*c.Stride+j0], c.Stride, rows)
		} else {
			addTileAVX(alpha, acc, &c.Data[i0*c.Stride+j0], c.Stride, rows)
		}
		return
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

// microKernel computes the 8×8 register tile
// acc[r][c] = Σ_{p<kc} a[r·ars+p·aps]·b[p·ldb+c] — one chain per element, in
// p order, fused where the CPU has FMA — of which the caller reads the first
// rows. a and b must reach the last element the formula names; the slices
// are checked here, so a fringe bug panics before the assembly reads past
// them. The AVX-512 body takes the strides gemmDirect passes (ars or aps is
// 1); any others go to the AVX2 body, which gives the same bits.
func microKernel(kc int, a []float64, ars, aps int, b []float64, ldb, rows int, acc *[gemmMR * gemmNR]float64) {
	const half = gemmMR / 2
	lo, hi := (*[half * gemmNR]float64)(acc[:half*gemmNR]), (*[half * gemmNR]float64)(acc[half*gemmNR:])
	switch {
	case useZMMKernel && kc > 0 && (ars == 1 || aps == 1):
		_, _ = a[(gemmMR-1)*ars+(kc-1)*aps], b[(kc-1)*ldb+gemmNR-1]
		microKernelZMM(kc, &a[0], ars, aps, &b[0], ldb, acc)
	case useFMAKernel && kc > 0:
		_, _ = a[(gemmMR-1)*ars+(kc-1)*aps], b[(kc-1)*ldb+gemmNR-1]
		microKernelFMA(kc, &a[0], ars, aps, &b[0], ldb, lo)
		if rows > half {
			microKernelFMA(kc, &a[half*ars], ars, aps, &b[0], ldb, hi)
		}
	default:
		microKernelGeneric(kc, a, ars, aps, b, ldb, lo)
		if rows > half {
			microKernelGeneric(kc, a[half*ars:], ars, aps, b, ldb, hi)
		}
	}
}

// microKernelGeneric is the portable scalar body of one 4×8 half of
// microKernel's tile, processed as two 4×4 quarters to limit register
// pressure.
func microKernelGeneric(kc int, a []float64, ars, aps int, b []float64, ldb int, acc *[gemmMR / 2 * gemmNR]float64) {
	var (
		c00, c01, c02, c03 float64
		c10, c11, c12, c13 float64
		c20, c21, c22, c23 float64
		c30, c31, c32, c33 float64
	)
	for p, ia, ib := 0, 0, 0; p < kc; p, ia, ib = p+1, ia+aps, ib+ldb {
		a0, a1, a2, a3 := a[ia], a[ia+ars], a[ia+2*ars], a[ia+3*ars]
		b0, b1, b2, b3 := b[ib], b[ib+1], b[ib+2], b[ib+3]
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
	for p, ia, ib := 0, 0, 0; p < kc; p, ia, ib = p+1, ia+aps, ib+ldb {
		a0, a1, a2, a3 := a[ia], a[ia+ars], a[ia+2*ars], a[ia+3*ars]
		b0, b1, b2, b3 := b[ib+4], b[ib+5], b[ib+6], b[ib+7]
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
