#include "textflag.h"
#include "go_asm.h"

// rowZMM (eight lanes, ZMM) and rowAVX (four lanes, YMM) write covariance
// entries a group at a time, the tabulated form two groups at a time, each
// entry the bits of the Go loops in geom.Distances and Kernel.apply: the
// same operations in the same order, unfused where the Go code is and fused
// where math.Exp's assembly is. Products and sums are commutative in IEEE
// arithmetic, so only the order of the operations, not of their operands,
// has to follow the Go code, and the lane width changes no bit. A group is
// written only when every lane stayed on the straight-line path; otherwise
// the function returns its index unwritten and the caller runs a narrower
// body or the Go loops on it.

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

// The eight-lane body. Thirteen of its constants live in registers for the
// whole call, broadcast from the first lane of the ones above: Z19–Z26 hold
// math.Exp's, Z27–Z31 the point p, θ₂, θ₁ and the two permutations that
// gather the x and the y halves of eight points. The rest are read as
// embedded broadcasts. ldexp's bounds are 64-bit lanes here.
DATA permx<>+0(SB)/8, $0
DATA permx<>+8(SB)/8, $2
DATA permx<>+16(SB)/8, $4
DATA permx<>+24(SB)/8, $6
DATA permx<>+32(SB)/8, $8
DATA permx<>+40(SB)/8, $10
DATA permx<>+48(SB)/8, $12
DATA permx<>+56(SB)/8, $14
GLOBL permx<>(SB), RODATA|NOPTR, $64
DATA permy<>+0(SB)/8, $1
DATA permy<>+8(SB)/8, $3
DATA permy<>+16(SB)/8, $5
DATA permy<>+24(SB)/8, $7
DATA permy<>+32(SB)/8, $9
DATA permy<>+40(SB)/8, $11
DATA permy<>+48(SB)/8, $13
DATA permy<>+56(SB)/8, $15
GLOBL permy<>(SB), RODATA|NOPTR, $64
DATA zexpbias<>+0(SB)/8, $0x3ff
GLOBL zexpbias<>(SB), RODATA|NOPTR, $8
DATA zexplo<>+0(SB)/8, $1
GLOBL zexplo<>(SB), RODATA|NOPTR, $8
DATA zexphi<>+0(SB)/8, $0x7fe
GLOBL zexphi<>(SB), RODATA|NOPTR, $8

// EXP on eight lanes, in four stages so that the paired table code can
// interleave two groups' chains with their Horner chains: the same
// operations as EXP, VCVTPD2DQ from ZMM to YMM, and the exponents widened to
// 64 bits (the in-range ones are the same bits either way) for the bias, the
// range test and the shift. EXPZ runs the stages in order.
//
// EXPRED reduces the argument: p = k as a float, kxy = k, x = the reduced
// argument over 16.
#define EXPRED(x, p, kxy) \
	VMULPD       Z24, x, p;                  \
	VCVTPD2DQ    p, kxy;                     \
	VCVTDQ2PD    kxy, p;                     \
	VFNMADD231PD Z23, p, x;                  \
	VFNMADD231PD Z22, p, x;                  \
	VMULPD       Z21, x, x

// EXPTAY is the Taylor chain, into p.
#define EXPTAY(x, p) \
	VMOVAPD          Z19, p;                 \
	VFMADD213PD.BCST taylor7<>(SB), x, p;    \
	VFMADD213PD.BCST taylor6<>(SB), x, p;    \
	VFMADD213PD.BCST taylor5<>(SB), x, p;    \
	VFMADD213PD.BCST taylor4<>(SB), x, p;    \
	VFMADD213PD.BCST taylor3<>(SB), x, p;    \
	VFMADD213PD      Z20, x, p;              \
	VFMADD213PD      Z25, x, p

// EXPSQ is the four squarings, the last fused with the +1, into x.
#define EXPSQ(x, p) \
	VMULPD      p, x, x;                     \
	VADDPD      Z26, x, p;                   \
	VMULPD      p, x, x;                     \
	VADDPD      Z26, x, p;                   \
	VMULPD      p, x, x;                     \
	VADDPD      Z26, x, p;                   \
	VMULPD      p, x, x;                     \
	VADDPD      Z26, x, p;                   \
	VFMADD213PD Z25, p, x

// EXPLD is ldexp: p = x·2^k, and km the lanes whose biased exponent is
// outside [1, 0x7fe] — archExp's denormal and overflow paths, and the
// out-of-range conversion of a non-finite or too large argument. It clobbers
// kxy (as kxz) and kt.
#define EXPLD(x, p, kxy, kxz, km, kt) \
	VPMOVSXDQ     kxy, kxz;                  \
	VPADDQ.BCST   zexpbias<>(SB), kxz, kxz;  \
	VPCMPGTQ.BCST zexphi<>(SB), kxz, km;     \
	VPCMPQ.BCST   $1, zexplo<>(SB), kxz, kt; \
	KORW          kt, km, km;                \
	VPSLLQ        $52, kxz, kxz;             \
	VMULPD        kxz, x, p

// EXPZ sets p = math.Exp(x) lane by lane and km to the lanes off archExp's
// straight line; it clobbers x, kxy (as kxz) and kt.
#define EXPZ(x, p, kxy, kxz, km, kt) \
	EXPRED(x, p, kxy);                       \
	EXPTAY(x, p);                            \
	EXPSQ(x, p);                             \
	EXPLD(x, p, kxy, kxz, km, kt)

// EUCLIDZ sets r to geom.euclid(p, q) for the eight points at byte offset off
// from SI+R9, p being Z27 = (px, py, …, px, py): sub, mul, mul, add, sqrt,
// the squares of x and of y gathered by Z31 and Z30. It clobbers a, b, c.
#define EUCLIDZ(off, a, b, c, r) \
	VMOVUPD   off(SI)(R9*1), a;              \
	VMOVUPD   (off+64)(SI)(R9*1), b;         \
	VSUBPD    a, Z27, a;                     \
	VSUBPD    b, Z27, b;                     \
	VMULPD    a, a, a;                       \
	VMULPD    b, b, b;                       \
	VMOVAPD   a, c;                          \
	VPERMT2PD b, Z31, a;                     \
	VPERMT2PD b, Z30, c;                     \
	VADDPD    c, a, r;                       \
	VSQRTPD   r, r

// NONFINITEZ sets km to the lanes where s is NaN or infinite.
#define NONFINITEZ(s, t, km) \
	VPANDQ.BCST absmask<>(SB), s, t;         \
	VCMPPD.BCST $0x05, posinf<>(SB), t, km

// CELLZ is CELL on eight lanes: km gets the lanes off the grid (cellOf's
// unsigned index past the last cell) or beyond the cut-off.
#define CELLZ(s, cell, km, kt) \
	VPSRLQ        $const_tabShift, s, cell;  \
	VPSUBQ.BCST   tabbase<>(SB), cell, cell; \
	VPCMPUQ.BCST  $6, tablast<>(SB), cell, km; \
	VCMPPD.BCST   $0x1e, tabcutoff<>(SB), s, kt; \
	KORW          kt, km, km

// POSZ is POS on eight lanes.
#define POSZ(s, t, cell) \
	VPSLLQ        $const_tabSubBits, s, t;   \
	VPANDQ.BCST   mantissa<>(SB), t, t;      \
	VPORQ.BCST    onebits<>(SB), t, t;       \
	VADDPD        t, t, t;                   \
	VSUBPD.BCST   three<>(SB), t, t;         \
	VPMULUDQ.BCST cellbytes<>(SB), cell, cell

// GATHER sets c to coefficient k of the eight lanes' cells, cell holding
// their byte offsets from AX. Zeroing c first keeps the gather from
// waiting on c's old value; km is its mask, all ones from K0 xnor K0.
#define GATHER(k, cell, c, km) \
	VPXORQ     c, c, c;                      \
	KXNORW     K0, K0, km;                   \
	VGATHERQPD (k*8)(AX)(cell*1), km, c

// EVALZ is EVAL on eight lanes. The coefficients are gathered one at a time
// for all eight lanes, the loads of two per lane and the transposes of
// rowAVX's EVAL costing more on eight lanes than the gathers do.
#define EVALZ(t, cell, acc, c) \
	GATHER(10, cell, acc, K5);               \
	GATHER(9, cell, c, K5);                  \
	HORNER(t, c, acc);                       \
	GATHER(8, cell, c, K5);                  \
	HORNER(t, c, acc);                       \
	GATHER(7, cell, c, K5);                  \
	HORNER(t, c, acc);                       \
	GATHER(6, cell, c, K5);                  \
	HORNER(t, c, acc);                       \
	GATHER(5, cell, c, K5);                  \
	HORNER(t, c, acc);                       \
	GATHER(4, cell, c, K5);                  \
	HORNER(t, c, acc);                       \
	GATHER(3, cell, c, K5);                  \
	HORNER(t, c, acc);                       \
	GATHER(2, cell, c, K5);                  \
	HORNER(t, c, acc);                       \
	GATHER(1, cell, c, K5);                  \
	HORNER(t, c, acc);                       \
	GATHER(0, cell, c, K5);                  \
	HORNER(t, c, acc)

// STEP2 is one Horner step of the paired groups A and B: coefficient k of
// A's cells (Z2) and B's (Z5) at positions Z3 and Z6 into Z11 and Z12.
#define STEP2(k) \
	GATHER(k, Z2, Z13, K5);                  \
	GATHER(k, Z5, Z14, K6);                  \
	HORNER(Z3, Z13, Z11);                    \
	HORNER(Z6, Z14, Z12)

// func rowZMM(form uint64, variance, rng, px, py float64, tab *corrTable, dst *float64, pts *geom.Point, j, n int) int
//
// rowAVX's loop on eight lanes. The form is read from the argument at each
// dispatch.
TEXT ·rowZMM(SB), NOSPLIT, $0-88
	VBROADCASTSD    taylor8<>(SB), Z19
	VBROADCASTSD    half<>(SB), Z20
	VBROADCASTSD    sixteenth<>(SB), Z21
	VBROADCASTSD    ln2l<>(SB), Z22
	VBROADCASTSD    ln2u<>(SB), Z23
	VBROADCASTSD    log2e<>(SB), Z24
	VBROADCASTSD    one<>(SB), Z25
	VBROADCASTSD    two<>(SB), Z26
	VBROADCASTF32X4 px+24(FP), Z27     // px py … px py
	VBROADCASTSD    rng+16(FP), Z28
	VBROADCASTSD    variance+8(FP), Z29
	VMOVUPD         permy<>(SB), Z30
	VMOVUPD         permx<>(SB), Z31
	MOVQ            tab+40(FP), AX
	MOVQ            dst+48(FP), DI
	MOVQ            pts+56(FP), SI
	MOVQ            j+64(FP), CX
	MOVQ            n+72(FP), DX
	SUBQ            $8, DX             // last start of a group

zloop:
	CMPQ form+0(FP), $const_tabulated
	JNE  zgroup
	LEAQ 8(CX), R8
	CMPQ R8, DX
	JLE  ztabpair

zgroup:
	CMPQ CX, DX
	JGT  zdone

	// Z3 = the eight distances.
	TESTQ SI, SI
	JZ    zfromdst
	MOVQ  CX, R9
	SHLQ  $4, R9                       // the byte offset of pts[j]
	EUCLIDZ(0, Z1, Z2, Z4, Z3)
	JMP   zhavedist

zfromdst:
	VMOVUPD (DI)(CX*8), Z3

zhavedist:
	// Z9 = s = r/θ₂; a non-finite s declines the group.
	VDIVPD     Z28, Z3, Z9
	NONFINITEZ(Z9, Z10, K1)
	KORTESTW   K1, K1
	JNZ        zdone

	CMPQ form+0(FP), $const_matern12
	JEQ  zmatern12
	CMPQ form+0(FP), $const_tabulated
	JEQ  ztabulated
	CMPQ form+0(FP), $const_matern32
	JEQ  zmatern32

	// matern52: θ₁·(1 + s + s·s/3)·exp(−s)
	VPXORQ.BCST signbit<>(SB), Z9, Z0
	EXPZ(Z0, Z1, Y2, Z2, K1, K2)
	VADDPD      Z25, Z9, Z5
	VMULPD      Z9, Z9, Z6
	VDIVPD.BCST three<>(SB), Z6, Z6
	VADDPD      Z6, Z5, Z5
	VMULPD      Z5, Z29, Z5
	VMULPD      Z1, Z5, Z1
	JMP         zstore

zmatern12:
	// θ₁·exp(−s)
	VPXORQ.BCST signbit<>(SB), Z9, Z0
	EXPZ(Z0, Z1, Y2, Z2, K1, K2)
	VMULPD      Z1, Z29, Z1
	JMP         zstore

zmatern32:
	// θ₁·(1+s)·exp(−s)
	VPXORQ.BCST signbit<>(SB), Z9, Z0
	EXPZ(Z0, Z1, Y2, Z2, K1, K2)
	VADDPD      Z25, Z9, Z5
	VMULPD      Z5, Z29, Z5
	VMULPD      Z1, Z5, Z1
	JMP         zstore

ztabulated:
	// θ₁·exp(−s)·h(s), h from the table
	CELLZ(Z9, Z2, K1, K2)
	KORTESTW    K1, K1
	JNZ         zdone
	POSZ(Z9, Z5, Z2)
	EVALZ(Z5, Z2, Z8, Z10)
	VPXORQ.BCST signbit<>(SB), Z9, Z0
	EXPZ(Z0, Z1, Y2, Z2, K1, K2)
	VMULPD      Z1, Z29, Z1
	VMULPD      Z8, Z1, Z1

zstore:
	KORTESTW K1, K1
	JNZ      zdone
	VMOVUPD  Z1, (DI)(CX*8)
	ADDQ     $8, CX
	JMP      zloop

ztabpair:
	// The tabulated form two groups at a time, A = j..j+7 and B =
	// j+8..j+15. Each group has two long chains of dependent operations,
	// the Horner rule and exp, and they wait on a third, the distance and
	// its quotient; so the four are interleaved, and the quotients of the
	// next pair are computed before this pair's chains, while they run.
	TESTQ SI, SI
	JZ    zpairfromdst
	MOVQ  CX, R9
	SHLQ  $4, R9
	EUCLIDZ(0, Z1, Z2, Z4, Z3)
	EUCLIDZ(128, Z5, Z7, Z8, Z6)
	JMP   zpairdist

zpairfromdst:
	VMOVUPD (DI)(CX*8), Z3
	VMOVUPD 64(DI)(CX*8), Z6

zpairdist:
	VDIVPD Z28, Z3, Z9
	VDIVPD Z28, Z6, Z10

zpairloop:
	// Z9, Z10 = s of the pair at j. CELLZ declines a non-finite s too: its
	// exponent bits are off the grid.
	CELLZ(Z9, Z2, K1, K2)
	CELLZ(Z10, Z5, K3, K4)
	KORTESTW    K3, K1
	JNZ         zgroup
	POSZ(Z9, Z3, Z2)
	POSZ(Z10, Z6, Z5)
	VPXORQ.BCST signbit<>(SB), Z9, Z9
	VPXORQ.BCST signbit<>(SB), Z10, Z10
	// Z15, Z0 = s of the next pair, if there is one.
	LEAQ  24(CX), R8
	CMPQ  R8, DX
	JGT   znonext
	TESTQ SI, SI
	JZ    znextfromdst
	MOVQ  CX, R9
	SHLQ  $4, R9
	EUCLIDZ(256, Z16, Z17, Z18, Z15)
	EUCLIDZ(384, Z16, Z17, Z18, Z0)
	JMP   znextdist
znextfromdst:
	VMOVUPD 128(DI)(CX*8), Z15
	VMOVUPD 192(DI)(CX*8), Z0
znextdist:
	VDIVPD  Z28, Z15, Z15
	VDIVPD  Z28, Z0, Z0
znonext:
	GATHER(10, Z2, Z11, K5)
	GATHER(10, Z5, Z12, K6)
	STEP2(9)
	EXPRED(Z9, Z1, Y4)
	EXPRED(Z10, Z7, Y8)
	STEP2(8)
	STEP2(7)
	EXPTAY(Z9, Z1)
	EXPTAY(Z10, Z7)
	STEP2(6)
	STEP2(5)
	STEP2(4)
	EXPSQ(Z9, Z1)
	EXPSQ(Z10, Z7)
	STEP2(3)
	STEP2(2)
	STEP2(1)
	EXPLD(Z9, Z1, Y4, Z4, K1, K2)
	EXPLD(Z10, Z7, Y8, Z8, K3, K4)
	STEP2(0)
	KORTESTW    K3, K1
	JNZ         zgroup
	VMULPD      Z1, Z29, Z1
	VMULPD      Z11, Z1, Z1
	VMULPD      Z7, Z29, Z7
	VMULPD      Z12, Z7, Z7
	VMOVUPD     Z1, (DI)(CX*8)
	VMOVUPD     Z7, 64(DI)(CX*8)
	ADDQ        $16, CX
	LEAQ        8(CX), R8
	CMPQ        R8, DX
	JGT         zloop              // no next pair: a group or the tail
	VMOVAPD     Z15, Z9
	VMOVAPD     Z0, Z10
	JMP         zpairloop

zdone:
	MOVQ CX, ret+80(FP)
	VZEROUPPER
	RET
