#include "textflag.h"
#include "go_asm.h"

// rowAVX writes covariance entries four at a time, the tabulated form eight,
// each one the bits of the Go loops in geom.Distances and Kernel.apply: the
// same operations in the same order, unfused where the Go code is and fused
// where math.Exp's assembly is. Products and sums are commutative in IEEE
// arithmetic, so only the order of the operations, not of their operands,
// has to follow the Go code. A group is written only when every lane stayed
// on the straight-line path; otherwise the function returns its index
// unwritten and the caller runs the Go loops on it.

#define LANES(name, v) DATA name<>+0(SB)/8, v; DATA name<>+8(SB)/8, v; DATA name<>+16(SB)/8, v; DATA name<>+24(SB)/8, v; GLOBL name<>(SB), RODATA|NOPTR, $32

LANES(absmask, $0x7fffffffffffffff)
LANES(signbit, $0x8000000000000000)
LANES(posinf, $0x7ff0000000000000)
LANES(one, $1.0)
LANES(two, $2.0)
LANES(three, $3.0)
LANES(half, $0.5)

// math.Exp's constants, the decimal literals of $GOROOT/src/math/exp_amd64.s.
LANES(log2e, $1.4426950408889634073599246810018920)
LANES(ln2u, $0.69314718055966295651160180568695068359375)
LANES(ln2l, $0.28235290563031577122588448175013436025525412068e-12)
LANES(sixteenth, $0.0625)
LANES(taylor8, $2.4801587301587301587e-5)
LANES(taylor7, $1.9841269841269841270e-4)
LANES(taylor6, $1.3888888888888888889e-3)
LANES(taylor5, $8.3333333333333333333e-3)
LANES(taylor4, $4.1666666666666666667e-2)
LANES(taylor3, $1.6666666666666666667e-1)

// The correlation table's grid (table.go): the index of its first cell, its
// last, the cut-off, the bits that make a mantissa a float in [1, 2), and the
// bytes of one cell's coefficients.
LANES(tabbase, $const_tabBase)
LANES(tablast, $(const_tabCells-1))
LANES(tabcutoff, $600.0)
LANES(mantissa, $0x000fffffffffffff)
LANES(onebits, $0x3ff0000000000000)
LANES(cellbytes, $((const_tabDegree+1)*8))

// ldexp's exponent bounds, four int32 lanes.
DATA expbias<>+0(SB)/8, $0x000003ff000003ff
DATA expbias<>+8(SB)/8, $0x000003ff000003ff
GLOBL expbias<>(SB), RODATA|NOPTR, $16
DATA explo<>+0(SB)/8, $0x0000000100000001
DATA explo<>+8(SB)/8, $0x0000000100000001
GLOBL explo<>(SB), RODATA|NOPTR, $16
DATA exphi<>+0(SB)/8, $0x000007fe000007fe
DATA exphi<>+8(SB)/8, $0x000007fe000007fe
GLOBL exphi<>(SB), RODATA|NOPTR, $16

// EXP sets p = math.Exp(x) lane by lane: archExp's FMA path, step for step —
// MULSD by LOG2E, CVTSD2SL and back (VCVTPD2DQ rounds by MXCSR as CVTSD2SL
// does), the two FNMADDs by LN2U and LN2L, the scaling by 1/16, the FMADD
// Taylor chain, the four add-2-and-multiply squarings (the last one fused
// with the +1), and ldexp: bias the exponent, shift it into place and
// multiply. It clobbers x, kx, t1 (as t1x and t1y), t2x and R9, and ORs into
// R8 a bit for each lane archExp would not take down the straight line: a
// non-finite argument or one beyond the overflow threshold (CVTSD2SL's
// out-of-range result then fails the exponent test), and a result that is
// denormal or overflows.
#define EXP(x, p, kx, t1x, t1y, t2x) \
	VMULPD       log2e<>(SB), x, p;          \
	VCVTPD2DQY   p, kx;                      \
	VCVTDQ2PD    kx, p;                      \
	VFNMADD231PD ln2u<>(SB), p, x;           \
	VFNMADD231PD ln2l<>(SB), p, x;           \
	VMULPD       sixteenth<>(SB), x, x;      \
	VMOVUPD      taylor8<>(SB), p;           \
	VFMADD213PD  taylor7<>(SB), x, p;        \
	VFMADD213PD  taylor6<>(SB), x, p;        \
	VFMADD213PD  taylor5<>(SB), x, p;        \
	VFMADD213PD  taylor4<>(SB), x, p;        \
	VFMADD213PD  taylor3<>(SB), x, p;        \
	VFMADD213PD  half<>(SB), x, p;           \
	VFMADD213PD  one<>(SB), x, p;            \
	VMULPD       p, x, x;                    \
	VADDPD       two<>(SB), x, p;            \
	VMULPD       p, x, x;                    \
	VADDPD       two<>(SB), x, p;            \
	VMULPD       p, x, x;                    \
	VADDPD       two<>(SB), x, p;            \
	VMULPD       p, x, x;                    \
	VADDPD       two<>(SB), x, p;            \
	VFMADD213PD  one<>(SB), p, x;            \
	VPADDD       expbias<>(SB), kx, kx;      \
	VPCMPGTD     exphi<>(SB), kx, t1x;       \
	VMOVDQU      explo<>(SB), t2x;           \
	VPCMPGTD     kx, t2x, t2x;               \
	VPOR         t1x, t2x, t2x;              \
	VMOVMSKPS    t2x, R9;                    \
	ORL          R9, R8;                     \
	VPMOVZXDQ    kx, t1y;                    \
	VPSLLQ       $52, t1y, t1y;              \
	VMULPD       t1y, x, p

// EUCLID sets r to geom.euclid(p, q) for the four points at byte offset off
// from SI+R9, p being Y15 = (px, py, px, py): sub, mul, mul, add, sqrt.
#define EUCLID(off, a, b, r) \
	VMOVUPD  off(SI)(R9*1), a;               \
	VMOVUPD  (off+32)(SI)(R9*1), b;          \
	VSUBPD   a, Y15, a;                      \
	VSUBPD   b, Y15, b;                      \
	VMULPD   a, a, a;                        \
	VMULPD   b, b, b;                        \
	VHADDPD  b, a, r;                        \
	VPERMPD  $0xd8, r, r;                    \
	VSQRTPD  r, r

// NONFINITE sets m to all ones in each lane where s is NaN or infinite.
#define NONFINITE(s, m) \
	VANDPD absmask<>(SB), s, m;              \
	VCMPPD $0x05, posinf<>(SB), m, m

// CELL is cellOf's index: cell = the exponent and top mantissa bits of s,
// less the first cell's. It ORs into m all ones in each lane off the grid or
// beyond the cut-off, where no coefficient may be loaded.
#define CELL(s, cell, m, t) \
	VPSRLQ   $const_tabShift, s, cell;       \
	VPSUBQ   tabbase<>(SB), cell, cell;      \
	VPCMPGTQ tablast<>(SB), cell, t;         \
	VPOR     t, m, m;                        \
	VPXOR    t, t, t;                        \
	VPCMPGTQ cell, t, t;                     \
	VPOR     t, m, m;                        \
	VCMPPD   $0x1e, tabcutoff<>(SB), s, t;   \
	VPOR     t, m, m

// POS is cellOf's position, t = 2u − 3 with u the low mantissa bits of s
// as a float in [1, 2); and turns cell into a byte offset into the table.
#define POS(s, t, cell) \
	VPSLLQ   $const_tabSubBits, s, t;        \
	VPAND    mantissa<>(SB), t, t;           \
	VPOR     onebits<>(SB), t, t;            \
	VADDPD   t, t, t;                        \
	VSUBPD   three<>(SB), t, t;              \
	VPMULUDQ cellbytes<>(SB), cell, cell

// LOADPAIR loads coefficients k and k+1 of the four cells at byte offsets
// R10–R13 from AX and transposes them: lo = the lanes' c[k], hi their
// c[k+1]. It clobbers Y0.
#define LOADPAIR(k, lo, hix, hiy) \
	VMOVUPD     (k*8)(AX)(R10*1), X0;        \
	VINSERTF128 $1, (k*8)(AX)(R12*1), Y0, Y0; \
	VMOVUPD     (k*8)(AX)(R11*1), hix;       \
	VINSERTF128 $1, (k*8)(AX)(R13*1), hiy, hiy; \
	VUNPCKLPD   hiy, Y0, lo;                 \
	VUNPCKHPD   hiy, Y0, hiy

// HORNER is one step of corrTable.eval, unfused: acc = c + t*acc.
#define HORNER(t, c, acc) \
	VMULPD acc, t, acc;                      \
	VADDPD acc, c, acc

// EVAL sets acc = corrTable.eval at position t of each lane's cell, cell
// holding the cells' byte offsets (cx is its low half): the offsets go to
// R10–R13 and the coefficients are read two at a time.
#define EVAL(t, cell, cx, acc, lo, hix, hiy, tmpx) \
	VMOVQ        cx, R10;                    \
	VPEXTRQ      $1, cx, R11;                \
	VEXTRACTI128 $1, cell, tmpx;             \
	VMOVQ        tmpx, R12;                  \
	VPEXTRQ      $1, tmpx, R13;              \
	LOADPAIR(9, lo, hix, hiy);               \
	VMOVAPD      hiy, acc;                   \
	HORNER(t, lo, acc);                      \
	LOADPAIR(7, lo, hix, hiy);               \
	HORNER(t, hiy, acc);                     \
	HORNER(t, lo, acc);                      \
	LOADPAIR(5, lo, hix, hiy);               \
	HORNER(t, hiy, acc);                     \
	HORNER(t, lo, acc);                      \
	LOADPAIR(3, lo, hix, hiy);               \
	HORNER(t, hiy, acc);                     \
	HORNER(t, lo, acc);                      \
	LOADPAIR(1, lo, hix, hiy);               \
	HORNER(t, hiy, acc);                     \
	HORNER(t, lo, acc);                      \
	LOADPAIR(0, lo, hix, hiy);               \
	HORNER(t, lo, acc)

// func rowAVX(form uint64, variance, rng, px, py float64, tab *corrTable, dst *float64, pts *geom.Point, j, n int) int
TEXT ·rowAVX(SB), NOSPLIT, $0-88
	MOVQ           form+0(FP), BX
	VBROADCASTSD   variance+8(FP), Y13
	VBROADCASTSD   rng+16(FP), Y14
	VBROADCASTF128 px+24(FP), Y15      // px py px py
	MOVQ           tab+40(FP), AX
	MOVQ           dst+48(FP), DI
	MOVQ           pts+56(FP), SI
	MOVQ           j+64(FP), CX
	MOVQ           n+72(FP), DX
	SUBQ           $4, DX              // last start of a group

loop:
	MOVQ CX, R9
	SHLQ $4, R9                        // the byte offset of pts[j]
	CMPQ BX, $const_tabulated
	JNE  group
	LEAQ 4(CX), R8
	CMPQ R8, DX
	JLE  tabpair

group:
	CMPQ CX, DX
	JGT  done

	// Y3 = the four distances: geom.euclid from the points, or as the
	// caller left them in dst.
	TESTQ SI, SI
	JZ    fromdst
	EUCLID(0, Y1, Y2, Y3)
	JMP   havedist

fromdst:
	VMOVUPD (DI)(CX*8), Y3

havedist:
	// Y9 = s = r/θ₂; a non-finite s declines the group.
	VDIVPD    Y14, Y3, Y9
	NONFINITE(Y9, Y10)
	VMOVMSKPD Y10, R8
	TESTL     R8, R8
	JNZ       done

	CMPQ BX, $const_matern12
	JEQ  matern12
	CMPQ BX, $const_tabulated
	JEQ  tabulated
	CMPQ BX, $const_matern32
	JEQ  matern32

	// matern52: θ₁·(1 + s + s·s/3)·exp(−s)
	VXORPD signbit<>(SB), Y9, Y0
	EXP(Y0, Y1, X2, X3, Y3, X4)
	VADDPD one<>(SB), Y9, Y5
	VMULPD Y9, Y9, Y6
	VDIVPD three<>(SB), Y6, Y6
	VADDPD Y6, Y5, Y5
	VMULPD Y5, Y13, Y5
	VMULPD Y1, Y5, Y1
	JMP    store

matern12:
	// θ₁·exp(−s)
	VXORPD signbit<>(SB), Y9, Y0
	EXP(Y0, Y1, X2, X3, Y3, X4)
	VMULPD Y1, Y13, Y1
	JMP    store

matern32:
	// θ₁·(1+s)·exp(−s)
	VXORPD signbit<>(SB), Y9, Y0
	EXP(Y0, Y1, X2, X3, Y3, X4)
	VADDPD one<>(SB), Y9, Y5
	VMULPD Y5, Y13, Y5
	VMULPD Y1, Y5, Y1
	JMP    store

tabulated:
	// θ₁·exp(−s)·h(s), h from the table
	VPXOR     Y4, Y4, Y4
	CELL(Y9, Y2, Y4, Y3)
	VMOVMSKPD Y4, R8
	TESTL     R8, R8
	JNZ       done
	POS(Y9, Y5, Y2)
	EVAL(Y5, Y2, X2, Y8, Y10, X11, Y11, X3)
	VXORPD    signbit<>(SB), Y9, Y0
	EXP(Y0, Y1, X2, X3, Y3, X4)
	VMULPD    Y1, Y13, Y1
	VMULPD    Y8, Y1, Y1

store:
	TESTL   R8, R8
	JNZ     done
	VMOVUPD Y1, (DI)(CX*8)
	ADDQ    $4, CX
	JMP     loop

tabpair:
	// The tabulated form two groups at a time, A = j..j+3 and B = j+4..j+7:
	// the table's Horner chain and exp's are long chains of dependent
	// operations, and two groups side by side keep twice as many of them in
	// flight. A pair with any lane off the straight-line path goes back to
	// the one-group code.
	TESTQ SI, SI
	JZ    pairfromdst
	EUCLID(0, Y1, Y2, Y3)
	EUCLID(64, Y4, Y5, Y6)
	JMP   pairdist

pairfromdst:
	VMOVUPD (DI)(CX*8), Y3
	VMOVUPD 32(DI)(CX*8), Y6

pairdist:
	// CELL declines a non-finite s too: its exponent bits are off the grid.
	VDIVPD    Y14, Y3, Y9
	VDIVPD    Y14, Y6, Y10
	VPXOR     Y7, Y7, Y7
	CELL(Y9, Y2, Y7, Y8)
	CELL(Y10, Y5, Y7, Y8)
	VMOVMSKPD Y7, R8
	TESTL     R8, R8
	JNZ       group
	POS(Y9, Y3, Y2)
	POS(Y10, Y6, Y5)
	EVAL(Y3, Y2, X2, Y11, Y1, X4, Y4, X7)
	EVAL(Y6, Y5, X5, Y12, Y1, X4, Y4, X7)
	VXORPD    signbit<>(SB), Y9, Y9
	VXORPD    signbit<>(SB), Y10, Y10
	EXP(Y9, Y1, X2, X3, Y3, X4)
	EXP(Y10, Y6, X5, X7, Y7, X8)
	TESTL     R8, R8
	JNZ       group
	VMULPD    Y1, Y13, Y1
	VMULPD    Y11, Y1, Y1
	VMULPD    Y6, Y13, Y6
	VMULPD    Y12, Y6, Y6
	VMOVUPD   Y1, (DI)(CX*8)
	VMOVUPD   Y6, 32(DI)(CX*8)
	ADDQ      $8, CX
	JMP       loop

done:
	MOVQ CX, ret+80(FP)
	VZEROUPPER
	RET
