//go:build !amd64

package la

// Non-amd64 targets have no assembly bodies (AVX2FMA and AVX512F, the gates
// other packages read, are false) and always use the portable scalar
// micro-kernel and vector loops.
const (
	AVX2FMA      = false
	AVX512F      = false
	useFMAKernel = false
	useZMMKernel = false
)

// The assembly micro-kernels are never called when useFMAKernel and
// useZMMKernel are false; these stubs satisfy the compiler on targets
// without them.
func microKernelZMM(kc int, a *float64, ars, aps int, b *float64, ldb int, acc *[gemmMR * gemmNR]float64) {
	panic("la: AVX-512 micro-kernel unavailable on this architecture")
}

func microKernelFMA(kc int, a *float64, ars, aps int, b *float64, ldb int, acc *[gemmMR / 2 * gemmNR]float64) {
	panic("la: FMA micro-kernel unavailable on this architecture")
}

// The tile and vector bodies are unreachable for the same reason.
func addTileZMM(alpha float64, acc *[gemmMR * gemmNR]float64, c *float64, ldc, rows int) {
	panic("la: AVX-512 tile update unavailable on this architecture")
}

func addTileAVX(alpha float64, acc *[gemmMR * gemmNR]float64, c *float64, ldc, rows int) {
	panic("la: AVX tile update unavailable on this architecture")
}

func dotFMA(x, y *float64, n int) float64 {
	panic("la: FMA vector kernels unavailable on this architecture")
}

func axpyFMA(alpha float64, x, y *float64, n int) {
	panic("la: FMA vector kernels unavailable on this architecture")
}

func rotateFMA(c, s float64, x, y *float64, n int) {
	panic("la: FMA vector kernels unavailable on this architecture")
}
