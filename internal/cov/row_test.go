package cov

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/la"
	"repro/internal/rng"
)

// rowKernels returns one kernel per form at the given range: the general-ν
// table at two smoothnesses and the three closed forms.
func rowKernels(variance, rng float64) []*Kernel {
	var ks []*Kernel
	for _, nu := range []float64{0.6, 2.2, 0.5, 1.5, 2.5} {
		ks = append(ks, NewKernel(Params{Variance: variance, Range: rng, Smoothness: nu}))
	}
	return ks
}

// sameRow reports the first index at which got and want differ in their bits.
func sameRow(got, want []float64) (int, bool) {
	for j := range want {
		if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
			return j, false
		}
	}
	return 0, true
}

// checkRow holds Kernel.row to the Go loops on one row, and checks that it
// writes nothing past the row's end.
func checkRow(t testing.TB, k *Kernel, m geom.Metric, p geom.Point, pts []geom.Point) {
	t.Helper()
	n := len(pts)
	want := make([]float64, n)
	geom.Distances(want, m, p, pts)
	k.apply(want)
	got := make([]float64, n+1)
	got[n] = 42
	k.row(got[:n], m, p, pts)
	if j, ok := sameRow(got, want); !ok {
		t.Fatalf("ν=%g θ₂=%g metric %v, row of %d: entry %d (d=%v) is %v (%#x), the Go loops give %v (%#x)",
			k.P.Smoothness, k.P.Range, m, n, j, geom.Distance(m, p, pts[j]),
			got[j], math.Float64bits(got[j]), want[j], math.Float64bits(want[j]))
	}
	if got[n] != 42 {
		t.Fatalf("row of %d wrote past its end", n)
	}
}

// checkFill holds the kernel on distances (the path of the non-Euclidean
// metrics) to apply.
func checkFill(t testing.TB, k *Kernel, dist []float64) {
	t.Helper()
	want := append([]float64(nil), dist...)
	k.apply(want)
	got := append([]float64(nil), dist...)
	k.fill(got, geom.Point{}, nil)
	if j, ok := sameRow(got, want); !ok {
		t.Fatalf("ν=%g θ₂=%g: distance %v (s=%v) gives %v (%#x), apply %v (%#x)",
			k.P.Smoothness, k.P.Range, dist[j], dist[j]/k.P.Range,
			got[j], math.Float64bits(got[j]), want[j], math.Float64bits(want[j]))
	}
}

// eachRowBody calls f on every body of the row kernel the CPU has, with that
// body selected and named: "avx512" (rowZMM), "avx2" (rowAVX, which every
// AVX2 CPU without AVX-512F runs) and "go" (the Go loops alone, which every
// other CPU runs). On a CPU with AVX-512F the first is the one CPUID picks.
func eachRowBody(f func(name string)) {
	defer func(zmm, avx bool) { useZMMRow, useAVXRow = zmm, avx }(useZMMRow, useAVXRow)
	if useZMMRow {
		f("avx512")
	}
	useZMMRow = false
	if useAVXRow {
		f("avx2")
	}
	useAVXRow = false
	f("go")
}

// TestKernelRowBitwise: every row-kernel body is the Go loops bit for bit —
// every Matérn form, the Euclidean metric (distances computed inside the
// kernel) and the great-circle one (distances from geom), rows of every
// length to 17 and around 128 and 256 (every lane of one and of two groups
// of eight, and every tail), ranges from 2⁻⁸ to 2, and distances at every
// edge of the straight-line path: zero, subnormal, either side of the
// table's first cell and of its cut-off, e^{−s} near and past underflow,
// +Inf and NaN, and non-finite coordinates, in each of the sixteen lanes of
// a pair of groups.
func TestKernelRowBitwise(t *testing.T) {
	eachRowBody(func(body string) {
		t.Run(body, testKernelRowBitwise)
	})
}

func testKernelRowBitwise(t *testing.T) {
	var lengths []int
	for n := 0; n <= 17; n++ {
		lengths = append(lengths, n)
	}
	lengths = append(lengths, 127, 128, 129, 255, 256, 257)
	ranges := []float64{0x1p-8, 0x1p-5, 0.17, 0x1p-1, 1, 2}
	r := rng.New(34)
	for _, rg := range ranges {
		for _, k := range rowKernels(1.3, rg) {
			for _, m := range []geom.Metric{geom.Euclidean, geom.GreatCircle} {
				for _, n := range lengths {
					pts := testPoints(m, n+1, uint64(n)+7)
					p := pts[n]
					pts = pts[:n]
					if n > 2 {
						pts[r.Intn(n)] = p // a zero distance
					}
					checkRow(t, k, m, p, pts)
				}
			}
			// Edges in s, exact: the ranges are powers of two or the
			// distances are s·θ₂ rounded once, and s is their quotient.
			edges := []float64{
				0, 5e-324, 0x1p-1060, tabMin, math.Nextafter(tabMin, 0), math.Nextafter(tabMin, 1),
				tabCutoff, math.Nextafter(tabCutoff, 0), math.Nextafter(tabCutoff, 1000),
				26.5, 27.5, 708, 709, 709.8, 744, 746, 1e6, math.MaxFloat64,
				math.Inf(1), math.NaN(), -1, -709.8, -800,
			}
			for _, e := range edges {
				d := e * rg
				for pos := 0; pos < 16; pos++ {
					dist := make([]float64, 19)
					for j := range dist {
						dist[j] = rg * (0.05 + 0.3*float64(j))
					}
					dist[pos] = d
					checkFill(t, k, dist)
					// the same distance along x from p, through the fused
					// Euclidean path
					p := geom.Point{X: 0.25, Y: 0.5}
					pts := make([]geom.Point, len(dist))
					for j, dj := range dist {
						pts[j] = geom.Point{X: p.X + dj, Y: p.Y}
					}
					checkRow(t, k, geom.Euclidean, p, pts)
				}
			}
			checkFill(t, k, edges)
			// non-finite coordinates, in any lane
			for pos := 0; pos < 16; pos++ {
				for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
					pts := testPoints(geom.Euclidean, 16, 3)
					pts[pos].Y = bad
					checkRow(t, k, geom.Euclidean, geom.Point{X: 0.5, Y: 0.5}, pts)
				}
			}
		}
	}
}

// TestRowBodiesAgree: rowZMM and rowAVX give the same bits on whole blocks —
// a 128×1 500 Block per form, the shape of a cached prediction's
// cross-covariance, and a 300-point SymBlock, whose rows have every length
// below 300 and so every tail.
func TestRowBodiesAgree(t *testing.T) {
	if !useZMMRow {
		t.Skip("no AVX-512F on this CPU")
	}
	pts := geom.GeneratePerturbedGrid(1628, rng.New(47))
	rows, cols, sym := pts[:128], pts[128:], pts[:300]
	blocks := func(k *Kernel) (block, symBlock *la.Mat) {
		block, symBlock = la.NewMat(len(rows), len(cols)), la.NewMat(len(sym), len(sym))
		k.Block(block, rows, cols, geom.Euclidean)
		k.SymBlock(symBlock, sym, geom.Euclidean)
		return block, symBlock
	}
	defer func() { useZMMRow = true }()
	for _, k := range rowKernels(1.3, 0.1) {
		useZMMRow = true
		block, symBlock := blocks(k)
		useZMMRow = false
		block2, symBlock2 := blocks(k)
		if i, ok := sameRow(block.Data, block2.Data); !ok {
			t.Fatalf("ν=%g Block entry %d: avx512 %v, avx2 %v", k.P.Smoothness, i, block.Data[i], block2.Data[i])
		}
		if i, ok := sameRow(symBlock.Data, symBlock2.Data); !ok {
			t.Fatalf("ν=%g SymBlock entry %d: avx512 %v, avx2 %v", k.P.Smoothness, i, symBlock.Data[i], symBlock2.Data[i])
		}
	}
}

// FuzzKernelRowBitwise: for any valid (ν, θ₂, θ₁) and distance scale r, every
// row-kernel body agrees with the Go loops bit for bit on a row of seventeen
// distances around r (a pair of groups of eight and one more), both from
// distances and from points.
func FuzzKernelRowBitwise(f *testing.F) {
	for _, nu := range []float64{0.5, 1.5, 2.5, 0.6, 2.2} {
		for _, r := range []float64{0, 1e-7, 0.03, 0.3, 5, 700, 1e300} {
			f.Add(nu, 0.1, 1.0, r)
		}
	}
	f.Add(0.77, 0x1p-8, 3.5, 4.0)
	f.Add(1.2, 2.0, 1e-3, 1300.0)
	f.Fuzz(func(t *testing.T, nu, rg, variance, r float64) {
		p := Params{Variance: variance, Range: rg, Smoothness: nu}
		if p.Validate() != nil || nu > 8 || nu < 1e-3 || math.IsNaN(r) {
			t.Skip()
		}
		dist := []float64{r, r / 2, 2 * r, math.Nextafter(r, math.Inf(1)), 3 * r, 0, r / 7, r * 1.0001, math.Abs(r),
			r / 3, r * 1.5, math.Nextafter(r, 0), r / 11, 5 * r, r * 0.9999, r / 64, 4 * r}
		pts := make([]geom.Point, len(dist))
		for j, d := range dist {
			pts[j] = geom.Point{X: 0.5 + d, Y: 0.5 - d/3}
		}
		k := NewKernel(p)
		eachRowBody(func(string) {
			checkFill(t, k, dist)
			checkRow(t, k, geom.Euclidean, geom.Point{X: 0.5, Y: 0.5}, pts)
		})
	})
}

var sinkBlock float64

// benchForms are the forms BenchmarkKernelBlock times, by name.
var benchForms = []struct {
	name string
	nu   float64
}{
	{"table-nu0.6", 0.6},
	{"nu0.5", 0.5},
	{"nu1.5", 1.5},
	{"nu2.5", 2.5},
}

// BenchmarkKernelBlock generates one 128×128 off-diagonal tile per form
// through Block on every row-kernel body the CPU has (<form>/avx512,
// <form>/avx2, <form>/go); through the exact Bessel routine entry by entry
// (the oracle the table replaced); and times the table's build.
func BenchmarkKernelBlock(b *testing.B) {
	const nb = 128
	pts := geom.GeneratePerturbedGrid(2*nb, rng.New(1))
	rows, cols := pts[:nb], pts[nb:]
	dst := la.NewMat(nb, nb)
	perEntry := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(nb*nb), "ns/entry")
		sinkBlock = dst.At(nb-1, nb-1)
	}
	for _, bc := range benchForms {
		k := NewKernel(Params{Variance: 1, Range: 0.1, Smoothness: bc.nu})
		eachRowBody(func(body string) {
			b.Run(bc.name+"/"+body, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					k.Block(dst, rows, cols, geom.Euclidean)
				}
				perEntry(b)
			})
		})
	}
	b.Run("exact-nu0.6", func(b *testing.B) {
		k := NewKernel(Params{Variance: 1, Range: 0.1, Smoothness: 0.6})
		for i := 0; i < b.N; i++ {
			for r, pr := range rows {
				row := dst.Row(r)
				for c, pc := range cols {
					row[c] = exactAt(k, geom.Distance(geom.Euclidean, pr, pc))
				}
			}
		}
		perEntry(b)
	})
	b.Run("build-nu0.6", func(b *testing.B) {
		norm := NewKernel(Params{Variance: 1, Range: 1, Smoothness: 0.6}).norm
		for i := 0; i < b.N; i++ {
			sinkBlock = buildTable(0.6, norm).c[0][0]
		}
		b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "µs/build")
	})
}
