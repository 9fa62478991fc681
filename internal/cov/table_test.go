package cov

import (
	"math"
	"sync"
	"testing"

	"repro/internal/geom"
	"repro/internal/la"
	"repro/internal/rng"
)

// exactAt is the oracle: C(r; θ) through the Temme/CF2 Bessel routine, the
// way every entry was computed before the table existed.
func exactAt(k *Kernel, r float64) float64 {
	s := r / k.P.Range
	return k.P.Variance * math.Exp(-s) * exactH(k.P.Smoothness, k.norm, s)
}

func relDiff(got, want float64) float64 {
	if got == want {
		return 0
	}
	return math.Abs(got-want) / math.Abs(want)
}

var tableNus = []float64{0.01, 0.1, 0.3, 0.6, 1, 1.27, 2, 3, 3.3, 4.9}

// TestTableMatchesExact: relative error against the exact routine ≤ 1e-13 on
// a dense log grid over the whole table, at the fixed ν and at seeded random
// ones.
func TestTableMatchesExact(t *testing.T) {
	nus := append([]float64(nil), tableNus...)
	r := rng.New(19)
	for i := 0; i < 6; i++ {
		nus = append(nus, r.Uniform(0.02, 6))
	}
	for _, nu := range nus {
		p := Params{Variance: 1.7, Range: 1, Smoothness: nu}
		k := NewKernel(p)
		worst, at := 0.0, 0.0
		for s := float64(tabMin); s <= tabCutoff; s *= 1.0011 {
			if e := relDiff(k.At(s), exactAt(k, s)); e > worst {
				worst, at = e, s
			}
		}
		if worst > 1e-13 {
			t.Errorf("ν=%g: relative error %.3g at s=%g, want ≤ 1e-13", nu, worst, at)
		}
	}
}

// TestTableContinuousAtBreakpoints: at every cell boundary the two cells that
// meet there give the same h_ν to ≤ 1e-14 beyond what the exact routine
// itself moves by over that one ulp — nothing, except at s = 2 where it
// changes from Temme's series to the continued fraction and the series is
// off by up to 6e-13 at small ν. (Compared on h_ν, not on C: one ulp of s at
// s = 512 already moves e^{−s} by 1e-13.) C at the breakpoint matches the
// exact routine.
func TestTableContinuousAtBreakpoints(t *testing.T) {
	for _, nu := range tableNus {
		k := NewKernel(Params{Variance: 1, Range: 1, Smoothness: nu})
		h := func(s float64) float64 {
			cell, pos := cellOf(s)
			return k.tab.eval(cell, pos)
		}
		for cell := uint(1); cell < tabCells; cell++ {
			b := math.Ldexp(float64(8+cell%8), tabMinExp-tabSubBits+int(cell/8))
			below := math.Nextafter(b, 0)
			if cb, pos := cellOf(b); cb != cell || pos != -1 {
				t.Fatalf("breakpoint %g: cell %d position %g, want cell %d position -1", b, cb, pos, cell)
			}
			if ca, pos := cellOf(below); ca != cell-1 || !(pos < 1 && pos > 1-1e-14) {
				t.Fatalf("just below breakpoint %g: cell %d position %g, want the end of cell %d", b, ca, pos, cell-1)
			}
			own := relDiff(exactH(nu, k.norm, below), exactH(nu, k.norm, b))
			if d := relDiff(h(below), h(b)); d > own+1e-14 {
				t.Errorf("ν=%g: h jumps by %.3g across breakpoint %g, the exact routine by %.3g", nu, d, b, own)
			}
			if d := relDiff(k.At(b), exactAt(k, b)); b <= tabCutoff && d > 1e-13 {
				t.Errorf("ν=%g: error %.3g at breakpoint %g", nu, d, b)
			}
		}
	}
}

// TestTableEdges: the first and last s the table serves, and what happens
// just outside.
func TestTableEdges(t *testing.T) {
	for _, nu := range tableNus {
		p := Params{Variance: 2.5, Range: 1, Smoothness: nu}
		k := NewKernel(p)
		if k.form != tabulated || k.tab == nil {
			t.Fatalf("ν=%g does not use the table", nu)
		}
		// below the grid the exact routine answers, bit for bit
		for _, s := range []float64{math.Nextafter(tabMin, 0), 1e-9, 1e-30} {
			if got, want := k.At(s), exactAt(k, s); got != want {
				t.Errorf("ν=%g s=%g (below the grid): %v, exact routine %v", nu, s, got, want)
			}
		}
		for _, s := range []float64{tabMin, tabCutoff, math.Nextafter(tabCutoff, 0)} {
			if d := relDiff(k.At(s), exactAt(k, s)); d > 1e-13 {
				t.Errorf("ν=%g s=%g: relative error %.3g", nu, s, d)
			}
		}
		for _, s := range []float64{math.Nextafter(tabCutoff, 1e3), 1023, 1024, 1e300, math.Inf(1), math.NaN()} {
			if got := k.At(s); got != 0 {
				t.Errorf("ν=%g s=%g (beyond the cut-off): %v, want 0", nu, s, got)
			}
		}
		if got := k.At(0); got != p.Variance {
			t.Errorf("ν=%g: C(0) = %v, want θ₁ = %v", nu, got, p.Variance)
		}
	}
	// the closed forms never build a table
	for _, nu := range []float64{0.5, 1.5, 2.5} {
		if k := NewKernel(Params{Variance: 1, Range: 1, Smoothness: nu}); k.tab != nil {
			t.Errorf("ν=%g holds a table", nu)
		}
	}
}

// testPoints returns n locations the metric is meant for: unit-square
// coordinates for the planar metric, (lon, lat) degrees for the spherical.
func testPoints(m geom.Metric, n int, seed uint64) []geom.Point {
	pts := geom.GeneratePerturbedGrid(n, rng.New(seed))
	if m == geom.Euclidean {
		return pts
	}
	for i, p := range pts {
		pts[i] = geom.Point{X: 360*p.X - 180, Y: 170*p.Y - 85}
	}
	return pts
}

var allMetrics = []geom.Metric{geom.Euclidean, geom.GreatCircle, geom.GreatCircleEarth100km, geom.Chordal}

// TestOneDefinitionOfC: At, Block, SymBlock, Matrix and MatrixParallel agree
// bit for bit, entry by entry, under every metric and for every form —
// which, for SymBlock against Block on the same points, is also the claim
// that geom.Distance is exactly symmetric.
func TestOneDefinitionOfC(t *testing.T) {
	const n = 90
	kernels := []*Kernel{
		NewKernel(Params{Variance: 1.3, Range: 0.17, Smoothness: 0.6}),
		NewKernel(Params{Variance: 1.3, Range: 0.17, Smoothness: 2.2}),
		NewKernel(Params{Variance: 1.3, Range: 0.17, Smoothness: 0.5}),
		NewKernel(Params{Variance: 1.3, Range: 0.17, Smoothness: 1.5}),
		NewKernel(Params{Variance: 1.3, Range: 0.17, Smoothness: 2.5}),
	}
	for _, metric := range allMetrics {
		pts := testPoints(metric, n, 5)
		for _, k := range kernels {
			block, sym, mat, par := la.NewMat(n, n), la.NewMat(n, n), la.NewMat(n, n), la.NewMat(n, n)
			k.Block(block, pts, pts, metric)
			k.SymBlock(sym, pts, metric)
			k.Matrix(mat, pts, metric)
			k.MatrixParallel(par, pts, metric, 3)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					want := k.At(geom.Distance(metric, pts[i], pts[j]))
					for name, got := range map[string]float64{
						"Block": block.At(i, j), "SymBlock": sym.At(i, j),
						"Matrix": mat.At(i, j), "MatrixParallel": par.At(i, j),
					} {
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("metric %v, ν=%g: %s[%d,%d] = %v, At = %v",
								metric, k.P.Smoothness, name, i, j, got, want)
						}
					}
				}
			}
		}
	}
}

func sameTable(a, b *corrTable) bool {
	for i := range a.c {
		for j := range a.c[i] {
			if math.Float64bits(a.c[i][j]) != math.Float64bits(b.c[i][j]) {
				return false
			}
		}
	}
	return true
}

// TestTableMemo: a memo hit is the table a fresh build gives, bit for bit,
// whatever was evicted in between, and the memo stays bounded.
func TestTableMemo(t *testing.T) {
	first := NewKernel(Params{Variance: 1, Range: 1, Smoothness: 0.77})
	if again := NewKernel(Params{Variance: 3, Range: 2, Smoothness: 0.77}); again.tab != first.tab {
		t.Error("second kernel at the same ν did not reuse the memoized table")
	}
	for i := 0; i < 1000; i++ {
		NewKernel(Params{Variance: 1, Range: 1, Smoothness: 0.8 + float64(i)*1e-3})
	}
	tableMemo.Lock()
	size := len(tableMemo.m)
	tableMemo.Unlock()
	if size > tableMemoMax {
		t.Errorf("memo holds %d tables after 1000 distinct ν, bound is %d", size, tableMemoMax)
	}
	for _, nu := range []float64{0.77, 0.8, 1.799} {
		k := NewKernel(Params{Variance: 1, Range: 1, Smoothness: nu})
		if !sameTable(k.tab, buildTable(nu, k.norm)) || !sameTable(k.tab, NewKernel(k.P).tab) {
			t.Errorf("ν=%g: memoized table differs from a fresh build", nu)
		}
	}
	if !sameTable(first.tab, NewKernel(first.P).tab) {
		t.Error("table of ν=0.77 changed after the memo churned")
	}
}

// TestNewKernelConcurrent: 16 goroutines building kernels at a mix of shared
// and private ν (more than the memo holds) all see the table a serial build
// gives. Under -race this is the check on the memo's locking.
func TestNewKernelConcurrent(t *testing.T) {
	const goroutines, each = 16, 40
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				nu := 0.3 + 0.1*float64(i%5) // shared by every goroutine
				if i%2 == 1 {
					nu = 1 + float64(g) + float64(i)*1e-2 // this goroutine's own
				}
				k := NewKernel(Params{Variance: 1, Range: 0.1, Smoothness: nu})
				if got, want := k.At(0.05), exactAt(k, 0.05); relDiff(got, want) > 1e-13 {
					t.Errorf("ν=%g: %v, exact %v", nu, got, want)
				}
				if i == each-1 && !sameTable(k.tab, buildTable(nu, k.norm)) {
					t.Errorf("ν=%g: table built under contention differs from a serial build", nu)
				}
			}
		}()
	}
	wg.Wait()
}

// FuzzCorrelationTable: for any smoothness up to 8 (the optimizer's default
// box ends at 3, the Bessel routine is specified to 5) and any distance, C is
// a correlation (finite, in [0, θ₁]) and on the grid matches the exact
// routine to 1e-13. Far beyond that, h_ν ~ s^{ν−½} outgrows a degree-10
// polynomial per cell: at ν = 16, s = 512 (C ≈ 1e-197) the error is 1.5e-13.
func FuzzCorrelationTable(f *testing.F) {
	for _, nu := range tableNus {
		for _, s := range []float64{0, 1e-9, tabMin, 1e-3, 0.125, 1, 2, 3.7, 64, tabCutoff, 601} {
			f.Add(nu, s)
		}
	}
	f.Add(0.5, 1.0)
	f.Add(0.4999999, 1.9999999)
	f.Fuzz(func(t *testing.T, nu, s float64) {
		if !(nu > 1e-3 && nu <= 8) || math.IsNaN(s) || s < 0 {
			t.Skip()
		}
		k := NewKernel(Params{Variance: 1, Range: 1, Smoothness: nu})
		got := k.At(s)
		if math.IsNaN(got) || got < 0 || got > 1+1e-13 {
			t.Fatalf("C(%g; ν=%g) = %v is not a correlation", s, nu, got)
		}
		if s >= tabMin && s <= tabCutoff {
			if want := exactAt(k, s); relDiff(got, want) > 1e-13 {
				t.Fatalf("C(%g; ν=%g) = %v, exact routine %v (relative %.3g)", s, nu, got, want, relDiff(got, want))
			}
		}
	})
}
