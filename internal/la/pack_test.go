package la

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// opMat returns a random matrix whose op is r×c (stored c×r when tr is
// Transpose); with strided set, a view inside a larger one (tileIn).
func opMat(t *testing.T, rng *rand.Rand, r, c int, tr Trans, strided bool) *Mat {
	if tr == Transpose {
		r, c = c, r
	}
	if strided {
		m, _ := tileIn(t, rng, r, c)
		return m
	}
	return randMat(rng, r, c)
}

// sameBits fails unless got and want hold the same bits everywhere.
func sameBits(t *testing.T, what string, got, want *Mat) {
	t.Helper()
	for i := 0; i < want.Rows; i++ {
		for j, w := range want.Row(i) {
			if g := got.At(i, j); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("%s: (%d,%d) is %v, want %v", what, i, j, g, w)
			}
		}
	}
}

// Gemm's promise: for a C of two or more columns, a block of its rows, or of
// at least two of its columns, computed on its own equals the same block of
// the whole product, bit for bit — blocks that start off the register grid,
// cross an NC boundary, or are one row. (A block of one column is the Gemv
// body, which sums in another order: the one exception.)
func TestGemmShapeIndependence(t *testing.T) { bothBodies(t, testGemmShapeIndependence) }

func testGemmShapeIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, sh := range [][3]int{{37, 23, 70}, {128, 18, 128}, {9, 600, 300}, {130, 7, 2}} {
		m, n, k := sh[0], sh[1], sh[2]
		rows := [][2]int{{0, 1}, {1, 3}, {4, m - 4}}
		cols := [][2]int{{0, 2}, {2, 3}, {5, n - 5}}
		for i := 0; i < 4; i++ {
			ta, tb := Trans(i%2), Trans(i/2)
			a := opMat(t, rng, m, k, ta, false)
			b := opMat(t, rng, k, n, tb, false)
			c0 := randMat(rng, m, n)
			alpha, beta := rng.NormFloat64(), rng.NormFloat64()
			whole := c0.Clone()
			Gemm(alpha, a, ta, b, tb, beta, whole)
			for _, r := range rows {
				var ap *Mat
				if ta == NoTrans {
					ap = a.View(r[0], 0, r[1], k)
				} else {
					ap = a.View(0, r[0], k, r[1])
				}
				part := c0.View(r[0], 0, r[1], n).Clone()
				Gemm(alpha, ap, ta, b, tb, beta, part)
				sameBits(t, fmt.Sprintf("%dx%dx%d ta=%d tb=%d rows %v", m, n, k, ta, tb, r), part, whole.View(r[0], 0, r[1], n))
			}
			for _, cl := range cols {
				var bp *Mat
				if tb == NoTrans {
					bp = b.View(0, cl[0], k, cl[1])
				} else {
					bp = b.View(cl[0], 0, cl[1], k)
				}
				part := c0.View(0, cl[0], m, cl[1]).Clone()
				Gemm(alpha, a, ta, bp, tb, beta, part)
				sameBits(t, fmt.Sprintf("%dx%dx%d ta=%d tb=%d cols %v", m, n, k, ta, tb, cl), part, whole.View(0, cl[0], m, cl[1]))
			}
		}
	}
}

// chainGemm is gemmDirect's contract written one element at a time: C[i][j]
// on part p gains alpha times one chain per KC slab, in slab order, of
// op(A)[i][l]·op(B)[l][j] summed in l order — fused where the micro-kernel
// is the FMA body.
func chainGemm(alpha float64, a *Mat, ta Trans, b *Mat, tb Trans, c *Mat, p part) {
	m, k := opDims(a, ta)
	at := func(x *Mat, tr Trans, i, j int) float64 {
		if tr == Transpose {
			return x.At(j, i)
		}
		return x.At(i, j)
	}
	for i := 0; i < m; i++ {
		for j := 0; j < c.Cols; j++ {
			if p == lowerC && j > i || p == upperC && j < i {
				continue
			}
			for pc := 0; pc < k; pc += gemmKC {
				s := 0.0
				for l := pc; l < min(pc+gemmKC, k); l++ {
					if useFMAKernel {
						s = math.FMA(at(a, ta, i, l), at(b, tb, l, j), s)
					} else {
						s += at(a, ta, i, l) * at(b, tb, l, j)
					}
				}
				c.Set(i, j, c.At(i, j)+alpha*s)
			}
		}
	}
}

// gemmDirect keeps its contract bit for bit (chainGemm): every m mod 8 with
// no, one and two whole register tiles against every n up to 17, shapes up
// to m, n = 140 and k = 560 (two KC slabs and a part), n past NC,
// the four transpose combinations, the whole of C or one triangle of it (the
// other left as it was), operands as strided views (nothing outside C's view
// written), alpha 0, ±1 and arbitrary.
func TestGemmDirectMatchesChain(t *testing.T) { bothBodies(t, testGemmDirectMatchesChain) }

func testGemmDirectMatchesChain(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var shapes [][3]int
	for m := 1; m <= 17; m++ {
		for n := 1; n <= 17; n++ {
			shapes = append(shapes, [3]int{m, n, 1 + (m*n)%7})
		}
	}
	for _, k := range []int{0, 1, 255, 256, 257, 511, 512, 513, 560} {
		shapes = append(shapes, [3]int{5, 11, k}, [3]int{8, 16, k}, [3]int{16, 16, k}, [3]int{17, 9, k})
	}
	for _, n := range []int{511, 512, 513, 523} {
		shapes = append(shapes, [3]int{3, n, 9}, [3]int{6, n, 260})
	}
	for range 120 {
		shapes = append(shapes, [3]int{1 + rng.Intn(140), 1 + rng.Intn(140), rng.Intn(561)})
	}
	for i, sh := range shapes {
		m, n, k := sh[0], sh[1], sh[2]
		ta, tb := Trans(i%2), Trans(i/2%2)
		alpha := []float64{0, 1, -1, rng.NormFloat64()}[i/4%4]
		p := part(i / 16 % 3)
		a := opMat(t, rng, m, k, ta, true)
		b := opMat(t, rng, k, n, tb, true)
		c, intact := tileIn(t, rng, m, n)
		want := c.Clone()
		chainGemm(alpha, a, ta, b, tb, want, p)
		gemmDirect(alpha, a, ta, b, tb, c, p)
		what := fmt.Sprintf("%dx%dx%d ta=%d tb=%d alpha=%g part=%d", m, n, k, ta, tb, alpha, p)
		intact(what)
		sameBits(t, what, c, want)
	}
}
