package la

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Golden cross-checks: the packed/blocked production kernels must agree with
// the retained naive references across every transpose/side/uplo combination,
// odd shapes (vectors, prime dims, non-multiples of the register and cache
// block sizes), and alpha/beta edge cases. randMat lives in mat_test.go.

// randTri returns a well-conditioned n×n matrix whose uplo triangle is used
// as a triangular factor (diagonally dominant so solves stay stable).
func randTri(rng *rand.Rand, n int) *Mat {
	m := randMat(rng, n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 4+math.Abs(m.At(i, i)))
	}
	return m
}

func maxRelDiff(got, want *Mat) float64 {
	var worst float64
	for i := 0; i < got.Rows; i++ {
		gr, wr := got.Row(i), want.Row(i)
		for j := range gr {
			d := math.Abs(gr[j] - wr[j])
			scale := math.Max(1, math.Abs(wr[j]))
			if d/scale > worst {
				worst = d / scale
			}
		}
	}
	return worst
}

var goldenDims = []int{1, 2, 3, 5, 7, 16, 31, 64, 65, 100, 127, 130}

func TestGemmGolden(t *testing.T) { bothBodies(t, testGemmGolden) }

func testGemmGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	shapes := [][3]int{} // m, k, n
	for _, n := range goldenDims {
		shapes = append(shapes, [3]int{n, n, n})
	}
	// skinny / degenerate shapes: 1×k, k×1, prime rectangles, deep-k
	shapes = append(shapes,
		[3]int{1, 64, 64}, [3]int{64, 64, 1}, [3]int{64, 1, 64},
		[3]int{3, 257, 5}, [3]int{129, 7, 131}, [3]int{37, 300, 4},
		[3]int{200, 520, 9}, [3]int{5, 1000, 5},
	)
	// What the naive loops used to take: fewer than four rows or eight
	// columns, or m·n·k below 32³; and no depth at all.
	for m := 1; m <= 3; m++ {
		for n := 2; n <= 7; n++ {
			shapes = append(shapes, [3]int{m, 0, n}, [3]int{m, 1, n}, [3]int{m, 5 * n, n})
		}
	}
	shapes = append(shapes,
		[3]int{4, 16, 8}, [3]int{16, 31, 18}, [3]int{31, 30, 9}, [3]int{12, 200, 13},
		[3]int{5, 0, 9}, [3]int{128, 0, 18},
	)
	alphaBeta := [][2]float64{{1, 0}, {1, 1}, {-1, 0.5}, {2, -1}, {0, 0.5}, {0.3, 0}}
	for _, sh := range shapes {
		m, k, n := sh[0], sh[1], sh[2]
		for _, ta := range []Trans{NoTrans, Transpose} {
			for _, tb := range []Trans{NoTrans, Transpose} {
				for _, ab := range alphaBeta {
					a := randMat(rng, m, k)
					if ta == Transpose {
						a = randMat(rng, k, m)
					}
					b := randMat(rng, k, n)
					if tb == Transpose {
						b = randMat(rng, n, k)
					}
					c0 := randMat(rng, m, n)
					got, want := c0.Clone(), c0.Clone()
					Gemm(ab[0], a, ta, b, tb, ab[1], got)
					RefGemm(ab[0], a, ta, b, tb, ab[1], want)
					if d := maxRelDiff(got, want); d > 1e-12 {
						t.Fatalf("gemm %dx%dx%d ta=%d tb=%d alpha=%g beta=%g: rel diff %g", m, k, n, ta, tb, ab[0], ab[1], d)
					}
				}
			}
		}
	}
}

// tileIn returns an r×c random matrix that is a view into a larger one (its
// Stride exceeds its Cols, as a tile inside a matrix that Potrf or the tile
// layer passes), and a check that nothing outside the view was written.
func tileIn(t *testing.T, rng *rand.Rand, r, c int) (*Mat, func(what string)) {
	const sentinel = -77
	host := NewMat(r+5, c+7)
	for i := range host.Data {
		host.Data[i] = sentinel
	}
	v := host.View(2, 3, r, c)
	for i := 0; i < r; i++ {
		for j := range v.Row(i) {
			v.Row(i)[j] = rng.NormFloat64()
		}
	}
	return v, func(what string) {
		t.Helper()
		for i := 0; i < host.Rows; i++ {
			for j, x := range host.Row(i) {
				if (i < 2 || i >= 2+r || j < 3 || j >= 3+c) && x != sentinel {
					t.Fatalf("%s: wrote outside its %dx%d operand at (%d,%d)", what, r, c, i-2, j-3)
				}
			}
		}
	}
}

// tileDims are the orders at and past one nb=128 tile, where the packed
// engine and the Trsm recursion do all the work; operands of these orders are
// tested as strided views.
var tileDims = []int{128, 160, 200}

func TestSyrkGolden(t *testing.T) { bothBodies(t, testSyrkGolden) }

func testSyrkGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	alphaBeta := [][2]float64{{1, 0}, {1, 1}, {-1, 1}, {0.5, -2}, {0, 0.7}}
	check := func(n, k int, strided bool) {
		for _, tr := range []Trans{NoTrans, Transpose} {
			for _, uplo := range []Uplo{Lower, Upper} {
				for _, ab := range alphaBeta {
					ar, ac := n, k
					if tr == Transpose {
						ar, ac = k, n
					}
					a, c0, intact := randMat(rng, ar, ac), randMat(rng, n, n), func(string) {}
					if strided {
						a, _ = tileIn(t, rng, ar, ac)
						c0, intact = tileIn(t, rng, n, n)
					}
					want := c0.Clone()
					RefSyrk(uplo, ab[0], a, tr, ab[1], want)
					Syrk(uplo, ab[0], a, tr, ab[1], c0)
					what := fmt.Sprintf("syrk n=%d k=%d t=%d uplo=%d alpha=%g beta=%g", n, k, tr, uplo, ab[0], ab[1])
					if d := maxRelDiff(c0, want); d > 1e-12 {
						t.Fatalf("%s: rel diff %g", what, d)
					}
					intact(what)
				}
			}
		}
	}
	for _, n := range goldenDims {
		for _, k := range []int{1, 3, 17, 64, 129, 300} {
			check(n, k, false)
		}
	}
	for _, n := range tileDims {
		for _, k := range []int{1, 64, 200, 300} {
			check(n, k, true)
		}
	}
}

// The triangle Syrk is not given comes back bit for bit, NaNs included, and
// no NaN leaks from it into the triangle it is given.
func TestSyrkLeavesOtherTriangleUntouched(t *testing.T) {
	bothBodies(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(3))
		for _, n := range []int{5, 130, 200} {
			for _, uplo := range []Uplo{Lower, Upper} {
				for _, tr := range []Trans{NoTrans, Transpose} {
					for _, ab := range [][2]float64{{1.5, 0.25}, {-1, 1}, {2, 0}, {0, 0.5}} {
						a := randMat(rng, n, 40)
						if tr == Transpose {
							a = randMat(rng, 40, n)
						}
						c := randMat(rng, n, n)
						given := func(i, j int) bool { return uplo == Lower && j <= i || uplo == Upper && j >= i }
						for i := 0; i < n; i++ {
							for j := 0; j < n; j++ {
								if !given(i, j) {
									c.Set(i, j, math.NaN())
								}
							}
						}
						before := c.Clone()
						Syrk(uplo, ab[0], a, tr, ab[1], c)
						for i := 0; i < n; i++ {
							for j := 0; j < n; j++ {
								switch v := c.At(i, j); {
								case !given(i, j) && math.Float64bits(v) != math.Float64bits(before.At(i, j)):
									t.Fatalf("n=%d uplo=%d t=%d alpha=%g beta=%g: other triangle modified at (%d,%d)", n, uplo, tr, ab[0], ab[1], i, j)
								case given(i, j) && (math.IsNaN(v) || math.IsInf(v, 0)):
									t.Fatalf("n=%d uplo=%d t=%d alpha=%g beta=%g: %v at (%d,%d)", n, uplo, tr, ab[0], ab[1], v, i, j)
								}
							}
						}
					}
				}
			}
		}
	})
}

// allTrsm calls f for the eight orientations of a triangular solve.
func allTrsm(f func(side Side, uplo Uplo, tr Trans)) {
	for _, side := range []Side{Left, Right} {
		for _, uplo := range []Uplo{Lower, Upper} {
			for _, tr := range []Trans{NoTrans, Transpose} {
				f(side, uplo, tr)
			}
		}
	}
}

// rhsDims is the shape of a Trsm right-hand side with free dimension m.
func rhsDims(side Side, n, m int) (r, c int) {
	if side == Left {
		return n, m
	}
	return m, n
}

func TestTrsmGolden(t *testing.T) { bothBodies(t, testTrsmGolden) }

func testTrsmGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	check := func(n, m int, strided bool) {
		allTrsm(func(side Side, uplo Uplo, tr Trans) {
			for _, alpha := range []float64{1, -0.5, 0} {
				br, bc := rhsDims(side, n, m)
				tri, b, intact := randTri(rng, n), randMat(rng, br, bc), func(string) {}
				if strided {
					tri, _ = tileIn(t, rng, n, n)
					for i := 0; i < n; i++ {
						tri.Set(i, i, 4+math.Abs(tri.At(i, i)))
					}
					b, intact = tileIn(t, rng, br, bc)
				}
				want := b.Clone()
				RefTrsm(side, uplo, tr, alpha, tri, want)
				Trsm(side, uplo, tr, alpha, tri, b)
				what := fmt.Sprintf("trsm n=%d m=%d side=%d uplo=%d t=%d alpha=%g", n, m, side, uplo, tr, alpha)
				if d := maxRelDiff(b, want); d > 1e-10 {
					t.Fatalf("%s: rel diff %g", what, d)
				}
				intact(what)
			}
		})
	}
	for _, n := range []int{1, 2, 5, 16, 31, 64, 65, 127} {
		for _, m := range []int{1, 3, 17, 64} {
			check(n, m, false)
		}
	}
	for _, n := range tileDims {
		for _, m := range []int{1, 64, 200} {
			check(n, m, true)
		}
	}
}

// A column of a Left solve, or a row of a Right one, does not depend on what
// else is solved with it: B solved whole and B solved in slices of several
// widths, each a compact copy, agree bit for bit at every order around the
// recursion's base and its splits.
func TestTrsmSliceIndependence(t *testing.T) { bothBodies(t, testTrsmSliceIndependence) }

func testTrsmSliceIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	widths := []int{1, 3, 8, 13, 15} // the last is the rest of m = 40
	const m = 40
	for _, n := range []int{1, 31, 32, 33, 64, 65, 127, 128, 160, 200} {
		allTrsm(func(side Side, uplo Uplo, tr Trans) {
			for _, alpha := range []float64{1, -0.5, 0} {
				tri := randTri(rng, n)
				br, bc := rhsDims(side, n, m)
				b0 := randMat(rng, br, bc)
				whole := b0.Clone()
				Trsm(side, uplo, tr, alpha, tri, whole)
				at := 0
				for _, w := range widths {
					slice := func(b *Mat) *Mat {
						if side == Left {
							return b.View(0, at, n, w)
						}
						return b.View(at, 0, w, n)
					}
					part, got := slice(b0).Clone(), slice(whole)
					Trsm(side, uplo, tr, alpha, tri, part)
					for i := 0; i < part.Rows; i++ {
						for j, v := range part.Row(i) {
							if v != got.At(i, j) {
								t.Fatalf("n=%d side=%d uplo=%d t=%d alpha=%g: slice of width %d at %d solves (%d,%d) to %v, the whole to %v",
									n, side, uplo, tr, alpha, w, at, i, j, v, got.At(i, j))
							}
						}
					}
					at += w
				}
			}
		})
	}
}

// Trsm is substitution all the way down (no inverted diagonal block), so its
// residual meets the backward-error bound of substitution however badly the
// triangle is conditioned: ‖op(T)·X − αB‖_F ≤ 8·n·ε·‖T‖_F·‖X‖_F. The rows of
// a well-conditioned triangle are graded from 1 down to 1/κ.
func TestTrsmBackwardError(t *testing.T) { bothBodies(t, testTrsmBackwardError) }

func testTrsmBackwardError(t *testing.T) {
	const eps = 0x1p-52
	rng := rand.New(rand.NewSource(8))
	for _, n := range []int{33, 128, 200} {
		for _, kappa := range []float64{1, 1e4, 1e8} {
			allTrsm(func(side Side, uplo Uplo, tr Trans) {
				for _, alpha := range []float64{1, -0.5, 0} {
					tri := randMat(rng, n, n)
					tri.Scale(1 / float64(n))
					for i := 0; i < n; i++ {
						tri.Set(i, i, 1)
						tri.View(i, 0, 1, n).Scale(math.Pow(kappa, -float64(i)/float64(n-1)))
					}
					// Only the uplo triangle is T: the norm must not see the rest.
					var tnorm float64
					for i := 0; i < n; i++ {
						for j := 0; j < n; j++ {
							v := triAt(tri, uplo, NoTrans, i, j)
							tnorm += v * v
						}
					}
					tnorm = math.Sqrt(tnorm)
					br, bc := rhsDims(side, n, 40)
					b := randMat(rng, br, bc)
					x := b.Clone()
					Trsm(side, uplo, tr, alpha, tri, x)
					res := x.Clone()
					RefTrmm(side, uplo, tr, 1, tri, res)
					b.Scale(alpha)
					res.Sub(b)
					if got, bound := res.FrobNorm(), 8*float64(n)*eps*tnorm*x.FrobNorm(); got > bound || math.IsNaN(got) {
						t.Fatalf("n=%d κ=%g side=%d uplo=%d t=%d alpha=%g: residual %g exceeds %g", n, kappa, side, uplo, tr, alpha, got, bound)
					}
				}
			})
		}
	}
}

// A Gemm whose C has one column is the Gemv of the same operands, bit for
// bit: both transposes of A, A a strided view, B a column or (transposed) a
// row, B and C compact or columns of a wider matrix.
func TestGemmOneColumnIsGemv(t *testing.T) { bothBodies(t, testGemmOneColumnIsGemv) }

func testGemmOneColumnIsGemv(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, dims := range [][2]int{{1, 1}, {3, 5}, {7, 64}, {128, 128}, {200, 67}, {67, 200}} {
		m, k := dims[0], dims[1]
		for _, ta := range []Trans{NoTrans, Transpose} {
			for _, ab := range [][2]float64{{1, 0}, {-1, 1}, {0.3, -2}, {0, 0.5}, {0, 0}} {
				ar, ac := m, k
				if ta == Transpose {
					ar, ac = k, m
				}
				a, _ := tileIn(t, rng, ar, ac)
				x, y0 := randMat(rng, k, 1), randMat(rng, m, 1)
				want := append([]float64(nil), y0.Data...)
				Gemv(ab[0], a, ta, x.Data, ab[1], want)
				xCol, _ := tileIn(t, rng, k, 1)
				xCol.CopyFrom(x)
				yCol, intact := tileIn(t, rng, m, 1)
				yCol.CopyFrom(y0)
				yPlain, yRow := y0.Clone(), y0.Clone()
				Gemm(ab[0], a, ta, x, NoTrans, ab[1], yPlain)
				Gemm(ab[0], a, ta, NewMatFrom(1, k, x.Data), Transpose, ab[1], yRow)
				Gemm(ab[0], a, ta, xCol, NoTrans, ab[1], yCol)
				intact("one-column gemm")
				for name, got := range map[string]*Mat{"compact B and C": yPlain, "B a row": yRow, "strided B and C": yCol} {
					for i, w := range want {
						if got.At(i, 0) != w {
							t.Fatalf("%s, %dx%d ta=%d alpha=%g beta=%g: Gemm gives y[%d] = %v, Gemv %v", name, m, k, ta, ab[0], ab[1], i, got.At(i, 0), w)
						}
					}
				}
			}
		}
	}
}

// TestTrsmTrmmRoundTrip checks X = Trsm(RefTrmm(X)) across all orientations:
// the solve undoes the reference multiply, without relying on RefTrsm.
func TestTrsmTrmmRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n, m := 67, 23
	for _, side := range []Side{Left, Right} {
		for _, uplo := range []Uplo{Lower, Upper} {
			for _, tr := range []Trans{NoTrans, Transpose} {
				tri := randTri(rng, n)
				var x0 *Mat
				if side == Left {
					x0 = randMat(rng, n, m)
				} else {
					x0 = randMat(rng, m, n)
				}
				x := x0.Clone()
				RefTrmm(side, uplo, tr, 1, tri, x)
				Trsm(side, uplo, tr, 1, tri, x)
				if d := maxRelDiff(x, x0); d > 1e-10 {
					t.Fatalf("round trip side=%d uplo=%d t=%d: rel diff %g", side, uplo, tr, d)
				}
			}
		}
	}
}

func TestNrm2Scaled(t *testing.T) {
	big := math.MaxFloat64 / 2
	cases := []struct {
		name string
		x    []float64
		want float64
	}{
		{"empty", nil, 0},
		{"zeros", []float64{0, 0, 0}, 0},
		{"plain", []float64{3, 4}, 5},
		{"huge", []float64{big, big}, big * math.Sqrt2},
		{"hugeNeg", []float64{-big, big, 0}, big * math.Sqrt2},
		{"denormal", []float64{5e-324, 0}, 5e-324},
		{"denormalPair", []float64{3e-310, 4e-310}, 5e-310},
		{"mixedScale", []float64{1e-300, 1e300}, 1e300},
		{"inf", []float64{1, math.Inf(1)}, math.Inf(1)},
	}
	for _, c := range cases {
		got := Nrm2(c.x)
		if math.IsInf(c.want, 1) {
			if !math.IsInf(got, 1) {
				t.Errorf("%s: got %g want +Inf", c.name, got)
			}
			continue
		}
		if c.want == 0 {
			if got != 0 {
				t.Errorf("%s: got %g want 0", c.name, got)
			}
			continue
		}
		if math.Abs(got-c.want)/c.want > 1e-14 {
			t.Errorf("%s: got %g want %g", c.name, got, c.want)
		}
	}
	if !math.IsNaN(Nrm2([]float64{1, math.NaN(), 2})) {
		t.Errorf("NaN input must produce NaN")
	}
	// naive accumulation of big*sqrt(2) would overflow to +Inf
	if v := Nrm2([]float64{big, big}); math.IsInf(v, 1) {
		t.Fatalf("Nrm2 overflowed: %g", v)
	}
}
