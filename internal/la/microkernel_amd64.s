//go:build amd64

#include "textflag.h"

// func microKernelZMM(kc int, a *float64, ars, aps int, b *float64, ldb int, acc *[64]float64)
//
// Computes the 8×8 register tile acc[r][c] = Σ_p a[r*ars+p*aps] * b[p*ldb+c]
// using one ZMM accumulator per row, Z0..Z7; each element of op(A) is a
// memory operand broadcast by its FMA (VFMADD231PD.BCST), and a row of op(B)
// is one load. Strides are in elements, and ars or aps must be 1, as every
// caller passes: an A read in place (aps = 1, rows ars apart) takes the
// first loop, a transposed A or a packed panel (ars = 1) the second. Neither
// loop addresses op(A) with an index register, which would split each FMA
// into two micro-ops and cost a quarter of the kernel's rate.
//
// Per p-step: 1 vector load + 8 broadcast FMAs = 128 flops.
TEXT ·microKernelZMM(SB), NOSPLIT, $0-56
	MOVQ kc+0(FP), CX
	MOVQ a+8(FP), SI
	MOVQ ars+16(FP), R8
	MOVQ aps+24(FP), R9
	MOVQ b+32(FP), DI
	MOVQ ldb+40(FP), R10

	// Strides to bytes.
	SHLQ $3, R8
	SHLQ $3, R9
	SHLQ $3, R10

	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7

	CMPQ R9, $8
	JNE  cols

	// Rows of op(A) ars apart, elements adjacent: one pointer per row (SI,
	// AX, BX, DX, R9, R12, R13, R8 for rows 0..7), four steps of p per
	// iteration, the rows of op(B) at DI + {0, 1, 2, 3}·ldb (R11 = 3·ldb).
	LEAQ (R10)(R10*2), R11
	LEAQ (SI)(R8*1), AX
	LEAQ (SI)(R8*2), BX
	LEAQ (BX)(R8*1), DX
	LEAQ (BX)(R8*2), R9
	LEAQ (DX)(R8*2), R12
	LEAQ (R9)(R8*2), R13
	LEAQ (R12)(R8*2), R8

	CMPQ CX, $4
	JLT  rows1

rows4:
	VMOVUPD (DI), Z8
	VMOVUPD (DI)(R10*1), Z9
	VMOVUPD (DI)(R10*2), Z10
	VMOVUPD (DI)(R11*1), Z11
	VFMADD231PD.BCST (SI), Z8, Z0
	VFMADD231PD.BCST (AX), Z8, Z1
	VFMADD231PD.BCST (BX), Z8, Z2
	VFMADD231PD.BCST (DX), Z8, Z3
	VFMADD231PD.BCST (R9), Z8, Z4
	VFMADD231PD.BCST (R12), Z8, Z5
	VFMADD231PD.BCST (R13), Z8, Z6
	VFMADD231PD.BCST (R8), Z8, Z7
	VFMADD231PD.BCST 8(SI), Z9, Z0
	VFMADD231PD.BCST 8(AX), Z9, Z1
	VFMADD231PD.BCST 8(BX), Z9, Z2
	VFMADD231PD.BCST 8(DX), Z9, Z3
	VFMADD231PD.BCST 8(R9), Z9, Z4
	VFMADD231PD.BCST 8(R12), Z9, Z5
	VFMADD231PD.BCST 8(R13), Z9, Z6
	VFMADD231PD.BCST 8(R8), Z9, Z7
	VFMADD231PD.BCST 16(SI), Z10, Z0
	VFMADD231PD.BCST 16(AX), Z10, Z1
	VFMADD231PD.BCST 16(BX), Z10, Z2
	VFMADD231PD.BCST 16(DX), Z10, Z3
	VFMADD231PD.BCST 16(R9), Z10, Z4
	VFMADD231PD.BCST 16(R12), Z10, Z5
	VFMADD231PD.BCST 16(R13), Z10, Z6
	VFMADD231PD.BCST 16(R8), Z10, Z7
	VFMADD231PD.BCST 24(SI), Z11, Z0
	VFMADD231PD.BCST 24(AX), Z11, Z1
	VFMADD231PD.BCST 24(BX), Z11, Z2
	VFMADD231PD.BCST 24(DX), Z11, Z3
	VFMADD231PD.BCST 24(R9), Z11, Z4
	VFMADD231PD.BCST 24(R12), Z11, Z5
	VFMADD231PD.BCST 24(R13), Z11, Z6
	VFMADD231PD.BCST 24(R8), Z11, Z7
	ADDQ $32, SI
	ADDQ $32, AX
	ADDQ $32, BX
	ADDQ $32, DX
	ADDQ $32, R9
	ADDQ $32, R12
	ADDQ $32, R13
	ADDQ $32, R8
	LEAQ (DI)(R10*4), DI
	SUBQ $4, CX
	CMPQ CX, $4
	JGE  rows4

rows1:
	TESTQ CX, CX
	JZ    store

rows1loop:
	VMOVUPD (DI), Z8
	VFMADD231PD.BCST (SI), Z8, Z0
	VFMADD231PD.BCST (AX), Z8, Z1
	VFMADD231PD.BCST (BX), Z8, Z2
	VFMADD231PD.BCST (DX), Z8, Z3
	VFMADD231PD.BCST (R9), Z8, Z4
	VFMADD231PD.BCST (R12), Z8, Z5
	VFMADD231PD.BCST (R13), Z8, Z6
	VFMADD231PD.BCST (R8), Z8, Z7
	ADDQ $8, SI
	ADDQ $8, AX
	ADDQ $8, BX
	ADDQ $8, DX
	ADDQ $8, R9
	ADDQ $8, R12
	ADDQ $8, R13
	ADDQ $8, R8
	ADDQ R10, DI
	DECQ CX
	JNZ  rows1loop
	JMP  store

	// Rows of op(A) adjacent (ars = 1), steps of p aps apart: the eight
	// elements of a step at SI + 0..56.
cols:
	VMOVUPD          (DI), Z8
	VFMADD231PD.BCST (SI), Z8, Z0
	VFMADD231PD.BCST 8(SI), Z8, Z1
	VFMADD231PD.BCST 16(SI), Z8, Z2
	VFMADD231PD.BCST 24(SI), Z8, Z3
	VFMADD231PD.BCST 32(SI), Z8, Z4
	VFMADD231PD.BCST 40(SI), Z8, Z5
	VFMADD231PD.BCST 48(SI), Z8, Z6
	VFMADD231PD.BCST 56(SI), Z8, Z7
	ADDQ             R9, SI
	ADDQ             R10, DI
	DECQ             CX
	JNZ              cols

store:
	MOVQ    acc+48(FP), DX
	VMOVUPD Z0, (DX)
	VMOVUPD Z1, 64(DX)
	VMOVUPD Z2, 128(DX)
	VMOVUPD Z3, 192(DX)
	VMOVUPD Z4, 256(DX)
	VMOVUPD Z5, 320(DX)
	VMOVUPD Z6, 384(DX)
	VMOVUPD Z7, 448(DX)
	VZEROUPPER
	RET

// func addTileZMM(alpha float64, acc *[64]float64, c *float64, ldc, rows int)
//
// C[r][0:8] += alpha·acc[r][0:8] for the first rows ≥ 1 rows of a register
// tile, C's rows ldc elements apart: one VMULPD, then one VADDPD per row — a
// product, rounded, then a sum, as the Go loop rounds it.
TEXT ·addTileZMM(SB), NOSPLIT, $0-40
	VBROADCASTSD alpha+0(FP), Z0
	MOVQ         acc+8(FP), SI
	MOVQ         c+16(FP), DI
	MOVQ         ldc+24(FP), CX
	MOVQ         rows+32(FP), BX
	SHLQ         $3, CX

zrow:
	VMULPD  (SI), Z0, Z1
	VADDPD  (DI), Z1, Z1
	VMOVUPD Z1, (DI)
	ADDQ    $64, SI
	ADDQ    CX, DI
	DECQ    BX
	JNZ     zrow

	VZEROUPPER
	RET

// func microKernelFMA(kc int, a *float64, ars, aps int, b *float64, ldb int, acc *[32]float64)
//
// Computes the 4×8 half tile acc[r][c] = Σ_p a[r*ars+p*aps] * b[p*ldb+c]
// using eight YMM accumulators:
//
//	Y0..Y7 — acc rows 0..3, columns [0:4] and [4:8]
//	Y8, Y9 — the two 4-wide vectors of row p of op(B)
//	Y10    — broadcast of one element of op(A)
//
// Strides are in elements. A packed A panel is ars=1, aps=8 and a packed B
// panel ldb=8; a row-major A read in place is ars=lda, aps=1, its transpose
// ars=1, aps=lda, and a B read in place is ldb=its stride.
//
// Per p-step: 2 vector loads + 4 broadcasts + 8 FMAs = 64 flops.
TEXT ·microKernelFMA(SB), NOSPLIT, $0-56
	MOVQ kc+0(FP), CX
	MOVQ a+8(FP), SI
	MOVQ ars+16(FP), R8
	MOVQ aps+24(FP), R9
	MOVQ b+32(FP), DI
	MOVQ ldb+40(FP), R10
	MOVQ acc+48(FP), DX

	// Strides to bytes; R11 = 3·ars, the offset of row 3 of op(A).
	SHLQ $3, R8
	SHLQ $3, R9
	SHLQ $3, R10
	LEAQ (R8)(R8*2), R11

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

	TESTQ CX, CX
	JZ    done

loop:
	VMOVUPD (DI), Y8
	VMOVUPD 32(DI), Y9

	VBROADCASTSD (SI), Y10
	VFMADD231PD  Y8, Y10, Y0
	VFMADD231PD  Y9, Y10, Y1

	VBROADCASTSD (SI)(R8*1), Y10
	VFMADD231PD  Y8, Y10, Y2
	VFMADD231PD  Y9, Y10, Y3

	VBROADCASTSD (SI)(R8*2), Y10
	VFMADD231PD  Y8, Y10, Y4
	VFMADD231PD  Y9, Y10, Y5

	VBROADCASTSD (SI)(R11*1), Y10
	VFMADD231PD  Y8, Y10, Y6
	VFMADD231PD  Y9, Y10, Y7

	ADDQ R9, SI
	ADDQ R10, DI
	DECQ CX
	JNZ  loop

done:
	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	VMOVUPD Y2, 64(DX)
	VMOVUPD Y3, 96(DX)
	VMOVUPD Y4, 128(DX)
	VMOVUPD Y5, 160(DX)
	VMOVUPD Y6, 192(DX)
	VMOVUPD Y7, 224(DX)
	VZEROUPPER
	RET

// func addTileAVX(alpha float64, acc *[64]float64, c *float64, ldc, rows int)
//
// The YMM form of addTileZMM: two VMULPD, then two VADDPD per row.
TEXT ·addTileAVX(SB), NOSPLIT, $0-40
	VBROADCASTSD alpha+0(FP), Y0
	MOVQ         acc+8(FP), SI
	MOVQ         c+16(FP), DI
	MOVQ         ldc+24(FP), CX
	MOVQ         rows+32(FP), BX
	SHLQ         $3, CX

yrow:
	VMULPD  (SI), Y0, Y1
	VMULPD  32(SI), Y0, Y2
	VADDPD  (DI), Y1, Y1
	VADDPD  32(DI), Y2, Y2
	VMOVUPD Y1, (DI)
	VMOVUPD Y2, 32(DI)
	ADDQ    $64, SI
	ADDQ    CX, DI
	DECQ    BX
	JNZ     yrow

	VZEROUPPER
	RET

// func cpuidex(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidex(SB), NOSPLIT, $0-24
	MOVL eaxIn+0(FP), AX
	MOVL ecxIn+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// AVX2+FMA bodies of dot, axpy and rotate (qr.go, svd.go). Each runs the
// bulk of the slice in 4-wide YMM steps and the last n mod 4 elements with
// the scalar forms of the same fused instructions, so a result depends on
// the operands and n alone. Loads and stores are unaligned. Callers pass
// n ≥ 1 (short slices stay in the Go loops).

// func dotFMA(x, y *float64, n int) float64
//
// Four YMM accumulators, 16 elements per step: the FMA has a latency of four
// or five cycles and two issue ports, and a 56- to 128-element row is too
// short to amortize more.
TEXT ·dotFMA(SB), NOSPLIT, $0-32
	MOVQ x+0(FP), SI
	MOVQ y+8(FP), DI
	MOVQ n+16(FP), CX

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3

	CMPQ CX, $16
	JL   dot4

dot16:
	VMOVUPD     (SI), Y4
	VMOVUPD     32(SI), Y5
	VMOVUPD     64(SI), Y6
	VMOVUPD     96(SI), Y7
	VFMADD231PD (DI), Y4, Y0
	VFMADD231PD 32(DI), Y5, Y1
	VFMADD231PD 64(DI), Y6, Y2
	VFMADD231PD 96(DI), Y7, Y3
	ADDQ        $128, SI
	ADDQ        $128, DI
	SUBQ        $16, CX
	CMPQ        CX, $16
	JGE         dot16

dot4:
	CMPQ CX, $4
	JL   dotsum

dot4loop:
	VMOVUPD     (SI), Y4
	VFMADD231PD (DI), Y4, Y0
	ADDQ        $32, SI
	ADDQ        $32, DI
	SUBQ        $4, CX
	CMPQ        CX, $4
	JGE         dot4loop

dotsum:
	// (Y0 + Y1) + (Y2 + Y3), then the four lanes: (l0 + l2) + (l1 + l3).
	VADDPD       Y1, Y0, Y0
	VADDPD       Y3, Y2, Y2
	VADDPD       Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPD       X1, X0, X0
	VUNPCKHPD    X0, X0, X1
	VADDSD       X1, X0, X0

	TESTQ CX, CX
	JZ    dotdone

dottail:
	VMOVSD      (SI), X4
	VFMADD231SD (DI), X4, X0
	ADDQ        $8, SI
	ADDQ        $8, DI
	DECQ        CX
	JNZ         dottail

dotdone:
	VMOVSD X0, ret+24(FP)
	VZEROUPPER
	RET

// func axpyFMA(alpha float64, x, y *float64, n int)
//
// y ← y + alpha·x, eight elements per step.
TEXT ·axpyFMA(SB), NOSPLIT, $0-32
	VBROADCASTSD alpha+0(FP), Y0
	MOVQ         x+8(FP), SI
	MOVQ         y+16(FP), DI
	MOVQ         n+24(FP), CX

	CMPQ CX, $8
	JL   axpy4

axpy8:
	VMOVUPD     (DI), Y1
	VMOVUPD     32(DI), Y2
	VFMADD231PD (SI), Y0, Y1
	VFMADD231PD 32(SI), Y0, Y2
	VMOVUPD     Y1, (DI)
	VMOVUPD     Y2, 32(DI)
	ADDQ        $64, SI
	ADDQ        $64, DI
	SUBQ        $8, CX
	CMPQ        CX, $8
	JGE         axpy8

axpy4:
	CMPQ CX, $4
	JL   axpytail

	VMOVUPD     (DI), Y1
	VFMADD231PD (SI), Y0, Y1
	VMOVUPD     Y1, (DI)
	ADDQ        $32, SI
	ADDQ        $32, DI
	SUBQ        $4, CX

axpytail:
	TESTQ CX, CX
	JZ    axpydone

axpy1:
	VMOVSD      (DI), X1
	VFMADD231SD (SI), X0, X1
	VMOVSD      X1, (DI)
	ADDQ        $8, SI
	ADDQ        $8, DI
	DECQ        CX
	JNZ         axpy1

axpydone:
	VZEROUPPER
	RET

// func rotateFMA(c, s float64, x, y *float64, n int)
//
// (x, y) ← (c·x − s·y, s·x + c·y), eight elements per step; each output is
// one product and one fused multiply-add. x and y must not overlap.
TEXT ·rotateFMA(SB), NOSPLIT, $0-40
	VBROADCASTSD c+0(FP), Y0
	VBROADCASTSD s+8(FP), Y1
	MOVQ         x+16(FP), SI
	MOVQ         y+24(FP), DI
	MOVQ         n+32(FP), CX

	CMPQ CX, $8
	JL   rot4

rot8:
	VMOVUPD     (SI), Y2
	VMOVUPD     (DI), Y3
	VMOVUPD     32(SI), Y6
	VMOVUPD     32(DI), Y7
	VMULPD      Y1, Y3, Y4
	VMULPD      Y0, Y3, Y5
	VMULPD      Y1, Y7, Y8
	VMULPD      Y0, Y7, Y9
	VFMSUB231PD Y0, Y2, Y4
	VFMADD231PD Y1, Y2, Y5
	VFMSUB231PD Y0, Y6, Y8
	VFMADD231PD Y1, Y6, Y9
	VMOVUPD     Y4, (SI)
	VMOVUPD     Y5, (DI)
	VMOVUPD     Y8, 32(SI)
	VMOVUPD     Y9, 32(DI)
	ADDQ        $64, SI
	ADDQ        $64, DI
	SUBQ        $8, CX
	CMPQ        CX, $8
	JGE         rot8

rot4:
	CMPQ CX, $4
	JL   rottail

	VMOVUPD     (SI), Y2
	VMOVUPD     (DI), Y3
	VMULPD      Y1, Y3, Y4
	VMULPD      Y0, Y3, Y5
	VFMSUB231PD Y0, Y2, Y4
	VFMADD231PD Y1, Y2, Y5
	VMOVUPD     Y4, (SI)
	VMOVUPD     Y5, (DI)
	ADDQ        $32, SI
	ADDQ        $32, DI
	SUBQ        $4, CX

rottail:
	TESTQ CX, CX
	JZ    rotdone

rot1:
	VMOVSD      (SI), X2
	VMOVSD      (DI), X3
	VMULSD      X1, X3, X4
	VMULSD      X0, X3, X5
	VFMSUB231SD X0, X2, X4
	VFMADD231SD X1, X2, X5
	VMOVSD      X4, (SI)
	VMOVSD      X5, (DI)
	ADDQ        $8, SI
	ADDQ        $8, DI
	DECQ        CX
	JNZ         rot1

rotdone:
	VZEROUPPER
	RET
