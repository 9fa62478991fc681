//go:build amd64

package la

// AVX2+FMA micro-kernel wiring for amd64. The kernel itself lives in
// microkernel_amd64.s; availability is established once at init via CPUID
// (FMA + AVX2 + OS support for YMM state through XGETBV), so binaries built
// with the default GOAMD64=v1 still run on older machines through the
// scalar fallback.

// microKernelFMA is the AVX2+FMA body of microKernel: the 4×8 register tile
// acc[r][c] = Σ_p a[r·ars+p·aps]·b[p·ldb+c] with eight YMM FMA accumulators.
// kc must be ≥ 1 and every element that formula names must be readable.
//
//go:noescape
func microKernelFMA(kc int, a *float64, ars, aps int, b *float64, ldb int, acc *[gemmMR * gemmNR]float64)

// addTileAVX is the body of addTile for a whole 4×8 tile: C[r][c] +=
// alpha·acc[r][c] with C's rows ldc elements apart, a product then a sum, as
// the Go loop rounds it.
//
//go:noescape
func addTileAVX(alpha float64, acc *[gemmMR * gemmNR]float64, c *float64, ldc int)

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

// useFMAKernel reports whether the AVX2+FMA micro-kernel is safe to call; the
// tests turn it off to run the Go loops.
var useFMAKernel = AVX2FMA
