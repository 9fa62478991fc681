//go:build amd64

package la

// Assembly micro-kernel wiring for amd64. The kernels live in
// microkernel_amd64.s. The body is chosen once at init by CPUID, in this
// order: AVX-512F (an 8×8 tile in eight ZMM accumulators), AVX2+FMA (the
// same tile as two 4×8 halves in YMM registers), the Go loops. Each checks
// that the OS saves the registers it uses (XGETBV), so binaries built with
// the default GOAMD64=v1 still run on older machines. The two assembly
// bodies give the same bits: each element of the tile is one fused chain in
// p order from zero, whatever the vector width that carries it.

// microKernelZMM is the AVX-512F body of microKernel: the 8×8 register tile
// acc[r][c] = Σ_p a[r·ars+p·aps]·b[p·ldb+c], one ZMM accumulator per row.
// kc must be ≥ 1, ars or aps must be 1 (op(A) read in place, transposed or
// not, or packed), and every element that formula names must be readable.
//
//go:noescape
func microKernelZMM(kc int, a *float64, ars, aps int, b *float64, ldb int, acc *[gemmMR * gemmNR]float64)

// microKernelFMA is the AVX2+FMA body of one 4×8 half of microKernel's tile
// (rows 0–3 of acc, or rows 4–7 at acc[32:]), in eight YMM accumulators,
// under the same conditions.
//
//go:noescape
func microKernelFMA(kc int, a *float64, ars, aps int, b *float64, ldb int, acc *[gemmMR / 2 * gemmNR]float64)

// addTileZMM and addTileAVX are the bodies of addTile for the first rows ≥ 1
// rows of a tile whose eight columns all lie in C: C[r][c] +=
// alpha·acc[r][c] with C's rows ldc elements apart, a product then a sum, as
// the Go loop rounds it.
//
//go:noescape
func addTileZMM(alpha float64, acc *[gemmMR * gemmNR]float64, c *float64, ldc, rows int)

//go:noescape
func addTileAVX(alpha float64, acc *[gemmMR * gemmNR]float64, c *float64, ldc, rows int)

// dotFMA, axpyFMA and rotateFMA are the vector bodies of dot, axpy and rotate
// (qr.go, svd.go) over n ≥ 1 elements from x and y. rotateFMA requires that
// x and y do not overlap.
//
//go:noescape
func dotFMA(x, y *float64, n int) float64

//go:noescape
func axpyFMA(alpha float64, x, y *float64, n int)

//go:noescape
func rotateFMA(c, s float64, x, y *float64, n int)

// cpuidex executes CPUID with the given leaf/subleaf.
func cpuidex(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0 (XCR0).
func xgetbv() (eax, edx uint32)

// AVX2FMA reports whether the CPU has AVX, AVX2 and FMA and the OS saves
// YMM state: the gate of la's assembly bodies and of cov's row kernel. It
// implies math.Exp's own FMA path (AVX and FMA), which the row kernel
// transcribes lane by lane.
var AVX2FMA = func() bool {
	_, _, c, _ := cpuidex(1, 0)
	const fmaBit, osxsaveBit, avxBit = 1 << 12, 1 << 27, 1 << 28
	if c&fmaBit == 0 || c&osxsaveBit == 0 || c&avxBit == 0 {
		return false
	}
	// OS must preserve XMM (bit 1) and YMM (bit 2) state across context
	// switches.
	lo, _ := xgetbv()
	if lo&6 != 6 {
		return false
	}
	_, b, _, _ := cpuidex(7, 0)
	const avx2Bit = 1 << 5
	return b&avx2Bit != 0
}()

// AVX512F reports whether the CPU has AVX-512F (CPUID leaf 7, EBX bit 16) and
// the OS saves the opmask and the full ZMM registers as well as XMM and YMM
// state (XCR0 bits 1, 2, 5, 6 and 7): the gate of la's ZMM bodies and of
// cov's eight-lane row kernel. It implies AVX2FMA.
var AVX512F = func() bool {
	if !AVX2FMA {
		return false
	}
	if lo, _ := xgetbv(); lo&0xE6 != 0xE6 {
		return false
	}
	_, b, _, _ := cpuidex(7, 0)
	const avx512FBit = 1 << 16
	return b&avx512FBit != 0
}()

// useFMAKernel reports whether the AVX2+FMA bodies are safe to call, and
// useZMMKernel whether the AVX-512F micro-kernel and tile update are, which
// take precedence. The tests turn the second off to run the AVX2 bodies and
// both to run the Go loops.
var (
	useFMAKernel = AVX2FMA
	useZMMKernel = AVX512F
)
