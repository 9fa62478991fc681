package la

import (
	"fmt"
	"math/rand"
	"testing"
)

// The dense kernels of a tile Cholesky and its solves at the shapes nb=128
// feeds them, each reporting GFLOP/s beside ns/op. Trsm and Potrf overwrite
// their operand, so every iteration starts from a copy of the same input (a
// repeated solve would drift into denormals); the copy is a few per cent of
// the smallest of them.

func reportGflops(b *testing.B, flopsPerOp float64) {
	b.ReportMetric(flopsPerOp*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}

func BenchmarkTrsm(b *testing.B) {
	cases := []struct {
		side Side
		t    Trans
		n, m int // order of the triangle, free dimension of B
	}{
		{Right, Transpose, 128, 128}, // the panel solve of a tile Cholesky
		{Left, NoTrans, 128, 128},    // a block of a multi-RHS forward solve
		{Left, NoTrans, 128, 1},      // a vector forward solve
		{Left, NoTrans, 512, 40},     // TrsmLD: a rank-40 V factor at nb=512
	}
	for _, c := range cases {
		name := fmt.Sprintf("%s/%dx%d", [2]string{"LLN", "RLT"}[c.side], c.n, c.m)
		b.Run(name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			tri := randTri(rng, c.n)
			b0 := randMat(rng, c.n, c.m)
			if c.side == Right {
				b0 = randMat(rng, c.m, c.n)
			}
			x := b0.Clone()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(x.Data, b0.Data)
				Trsm(c.side, Lower, c.t, 1, tri, x)
			}
			reportGflops(b, float64(c.n)*float64(c.n)*float64(c.m))
		})
	}
}

func BenchmarkSyrk(b *testing.B) {
	const n = 128
	rng := rand.New(rand.NewSource(2))
	a, c := randMat(rng, n, n), randMat(rng, n, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Syrk(Lower, -1, a, NoTrans, 1, c)
	}
	reportGflops(b, n*n*n)
}

// Potrf at a tile's order and at two full-block orders, on one and two
// workers: the trailing blocks stay in cache and are shared out only above
// the super-panel's 256.
func BenchmarkPotrf(b *testing.B) {
	for _, n := range []int{128, 1500, 2300} {
		a0 := randSPD(rand.New(rand.NewSource(3)), n)
		a := a0.Clone()
		for _, w := range []int{1, 2} {
			b.Run(fmt.Sprintf("%d/w%d", n, w), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					copy(a.Data, a0.Data)
					if err := PotrfParallel(a, w); err != nil {
						b.Fatal(err)
					}
				}
				reportGflops(b, float64(n)*float64(n)*float64(n)/3)
			})
		}
	}
}

// The multi-column products that carry the most work in a fit_tlr evaluation
// (n=1600, nb=128, 1e-7): m×n×k with m a tile's 128 rows or a rank, n and k a
// rank or 128 — a TLR update's projections, bases and core products.
func BenchmarkGemmSkinny(b *testing.B) {
	cases := []struct {
		ta      Trans
		m, n, k int
	}{
		{NoTrans, 128, 18, 128},
		{Transpose, 128, 18, 128},
		{NoTrans, 16, 18, 128},
		{Transpose, 128, 18, 16},
		{Transpose, 26, 16, 128},
		{Transpose, 74, 128, 128},
	}
	for _, c := range cases {
		name := fmt.Sprintf("%sN/%dx%dx%d", [2]string{"N", "T"}[c.ta], c.m, c.n, c.k)
		b.Run(name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(5))
			a := randMat(rng, c.m, c.k)
			if c.ta == Transpose {
				a = randMat(rng, c.k, c.m)
			}
			x, y := randMat(rng, c.k, c.n), randMat(rng, c.m, c.n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Gemm(-1, a, c.ta, x, NoTrans, 1, y)
			}
			reportGflops(b, 2*float64(c.m)*float64(c.n)*float64(c.k))
		})
	}
}

// A 128³ product, the tile Cholesky's update shape, in the four transpose
// combinations and on every micro-kernel body the CPU has.
func BenchmarkGemmSquare(b *testing.B) {
	const n = 128
	rng := rand.New(rand.NewSource(6))
	x, y, c := randMat(rng, n, n), randMat(rng, n, n), randMat(rng, n, n)
	for i := 0; i < 4; i++ {
		ta, tb := Trans(i%2), Trans(i/2)
		eachBody(func(body string) {
			b.Run(fmt.Sprintf("%s%s/%s", [2]string{"N", "T"}[ta], [2]string{"N", "T"}[tb], body), func(b *testing.B) {
				for range b.N {
					Gemm(-1, x, ta, y, tb, 1, c)
				}
				reportGflops(b, 2*n*n*n)
			})
		})
	}
}

// A tile times one column: the update of a vector forward solve.
func BenchmarkGemmOneColumn(b *testing.B) {
	const n = 128
	rng := rand.New(rand.NewSource(4))
	a, x, y := randMat(rng, n, n), randMat(rng, n, 1), randMat(rng, n, 1)
	for _, ta := range []Trans{NoTrans, Transpose} {
		b.Run([2]string{"N", "T"}[ta], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Gemm(-1, a, ta, x, NoTrans, 1, y)
			}
			reportGflops(b, 2*n*n)
		})
	}
}
