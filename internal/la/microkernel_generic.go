//go:build !amd64

package la

// Non-amd64 targets have no assembly bodies (AVX2FMA, the gate other
// packages read, is false) and always use the portable scalar micro-kernel
// and vector loops.
const (
	AVX2FMA      = false
	useFMAKernel = false
)

// microKernelFMA is never called when useFMAKernel is false; this stub
// satisfies the compiler on targets without the assembly implementation.
func microKernelFMA(kc int, a *float64, ars, aps int, b *float64, ldb int, acc *[gemmMR * gemmNR]float64) {
	panic("la: FMA micro-kernel unavailable on this architecture")
}

// The tile and vector bodies are unreachable for the same reason.
func addTileAVX(alpha float64, acc *[gemmMR * gemmNR]float64, c *float64, ldc int) {
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
