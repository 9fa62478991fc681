package cov

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/geom"
	"repro/internal/la"
	"repro/internal/rng"
)

func TestKernelAtZero(t *testing.T) {
	for _, nu := range []float64{0.3, 0.5, 1, 1.5, 2.5} {
		k := NewKernel(Params{Variance: 2.5, Range: 0.1, Smoothness: nu})
		if k.At(0) != 2.5 {
			t.Errorf("nu=%g: C(0) = %g, want variance", nu, k.At(0))
		}
	}
}

func TestKernelExponentialClosedForm(t *testing.T) {
	k := NewKernel(Params{Variance: 1, Range: 0.1, Smoothness: 0.5})
	for _, r := range []float64{0.01, 0.1, 0.5, 2} {
		want := math.Exp(-r / 0.1)
		if math.Abs(k.At(r)-want) > 1e-13 {
			t.Errorf("exponential mismatch at r=%g: %g vs %g", r, k.At(r), want)
		}
	}
}

// The closed forms must agree with the general Bessel path. We compare at a
// smoothness infinitesimally off the closed-form value.
func TestKernelClosedFormsMatchBesselPath(t *testing.T) {
	for _, nu := range []float64{0.5, 1.5, 2.5} {
		closed := NewKernel(Params{Variance: 1.3, Range: 0.2, Smoothness: nu})
		general := NewKernel(Params{Variance: 1.3, Range: 0.2, Smoothness: nu + 1e-9})
		for _, r := range []float64{0.01, 0.1, 0.3, 1, 3} {
			a, b := closed.At(r), general.At(r)
			if math.Abs(a-b) > 1e-6*math.Abs(a)+1e-12 {
				t.Errorf("nu=%g r=%g: closed %g vs general %g", nu, r, a, b)
			}
		}
	}
}

func TestKernelWhittleNu1(t *testing.T) {
	// Whittle: C(r) = θ1 (r/θ2) K_1(r/θ2). Spot value: s·K_1(s) at s=1
	// equals 0.6019072301972346.
	k := NewKernel(Params{Variance: 1, Range: 1, Smoothness: 1})
	want := 0.6019072301972346
	if math.Abs(k.At(1)-want) > 1e-12 {
		t.Errorf("Whittle at r=1: %g want %g", k.At(1), want)
	}
}

func TestKernelMonotoneDecay(t *testing.T) {
	for _, nu := range []float64{0.5, 1, 1.7} {
		k := NewKernel(Params{Variance: 1, Range: 0.1, Smoothness: nu})
		prev := k.At(0)
		for r := 0.001; r < 2; r *= 1.5 {
			v := k.At(r)
			if v > prev {
				t.Fatalf("nu=%g: kernel increased at r=%g", nu, r)
			}
			if v < 0 {
				t.Fatalf("nu=%g: kernel negative at r=%g", nu, r)
			}
			prev = v
		}
	}
}

func TestKernelRangeControlsDecay(t *testing.T) {
	// Larger range = stronger correlation at the same distance.
	weak := NewKernel(Params{Variance: 1, Range: 0.03, Smoothness: 0.5})
	strong := NewKernel(Params{Variance: 1, Range: 0.3, Smoothness: 0.5})
	if weak.At(0.1)/weak.P.Variance >= strong.At(0.1)/strong.P.Variance {
		t.Fatal("range parameter does not control correlation strength")
	}
}

func TestKernelLargeDistanceUnderflow(t *testing.T) {
	k := NewKernel(Params{Variance: 1, Range: 0.01, Smoothness: 0.8})
	v := k.At(100) // s = 10000
	if v != 0 && (v < 0 || v > 1e-300 || math.IsNaN(v)) {
		t.Fatalf("large distance should underflow cleanly, got %g", v)
	}
}

func TestValidate(t *testing.T) {
	good := Params{1, 0.1, 0.5}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Params{
		{0, 0.1, 0.5},
		{1, -0.1, 0.5},
		{1, 0.1, 0},
		{math.NaN(), 0.1, 0.5},
		{1, math.Inf(1), 0.5},
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("params %+v should be invalid", p)
		}
	}
}

func TestMatrixSymmetricSPD(t *testing.T) {
	r := rng.New(1)
	pts := geom.GeneratePerturbedGrid(64, r)
	k := NewKernel(Params{Variance: 1, Range: 0.1, Smoothness: 0.5})
	sigma := la.NewMat(64, 64)
	k.Matrix(sigma, pts, geom.Euclidean)
	for i := 0; i < 64; i++ {
		if sigma.At(i, i) != 1 {
			t.Fatal("diagonal must equal variance")
		}
		for j := 0; j < i; j++ {
			if sigma.At(i, j) != sigma.At(j, i) {
				t.Fatal("matrix not symmetric")
			}
		}
	}
	if err := la.Potrf(sigma.Clone()); err != nil {
		t.Fatalf("Matérn covariance not SPD: %v", err)
	}
}

func TestBlockMatchesMatrix(t *testing.T) {
	r := rng.New(2)
	pts := geom.GeneratePerturbedGrid(30, r)
	k := NewKernel(Params{Variance: 1.2, Range: 0.15, Smoothness: 1})
	full := la.NewMat(30, 30)
	k.Matrix(full, pts, geom.Euclidean)
	blk := la.NewMat(10, 20)
	k.Block(blk, pts[:10], pts[10:], geom.Euclidean)
	for i := 0; i < 10; i++ {
		for j := 0; j < 20; j++ {
			if math.Abs(blk.At(i, j)-full.At(i, 10+j)) > 1e-15 {
				t.Fatalf("block mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestBlockGreatCircle(t *testing.T) {
	// Points specified in degrees; kernel over haversine distances.
	pts := []geom.Point{{X: 40, Y: 20}, {X: 41, Y: 20}, {X: 45, Y: 25}}
	k := NewKernel(Params{Variance: 1, Range: 0.1, Smoothness: 0.5})
	m := la.NewMat(3, 3)
	k.Matrix(m, pts, geom.GreatCircle)
	if m.At(0, 1) <= m.At(0, 2) {
		t.Fatal("closer point should have higher covariance")
	}
}

func TestSampleFieldReproducible(t *testing.T) {
	pts := geom.GeneratePerturbedGrid(49, rng.New(3))
	k := NewKernel(Params{Variance: 1, Range: 0.1, Smoothness: 0.5})
	z1, err := SampleField(k, pts, geom.Euclidean, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	z2, err := SampleField(k, pts, geom.Euclidean, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	for i := range z1 {
		if z1[i] != z2[i] {
			t.Fatal("sampling not reproducible")
		}
	}
}

func TestSampleFieldVariance(t *testing.T) {
	// Empirical variance across replicates should approach θ1.
	pts := geom.GeneratePerturbedGrid(25, rng.New(4))
	k := NewKernel(Params{Variance: 2, Range: 0.05, Smoothness: 0.5})
	l, err := FieldFactor(k, pts, geom.Euclidean)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(5)
	var sum2 float64
	reps := 400
	for rep := 0; rep < reps; rep++ {
		z := SampleFromFactor(l, r)
		for _, v := range z {
			sum2 += v * v
		}
	}
	emp := sum2 / float64(reps*25)
	if math.Abs(emp-2) > 0.15 {
		t.Fatalf("empirical variance %g far from 2", emp)
	}
}

func TestSampleFieldSpatialCorrelation(t *testing.T) {
	// Strongly correlated field: neighboring values nearly equal; weakly
	// correlated: nearly independent.
	pts := geom.GenerateGrid(8)
	strong := NewKernel(Params{Variance: 1, Range: 0.9, Smoothness: 0.5})
	weak := NewKernel(Params{Variance: 1, Range: 0.001, Smoothness: 0.5})
	corr := func(k *Kernel, seed uint64) float64 {
		l, err := FieldFactor(k, pts, geom.Euclidean)
		if err != nil {
			t.Fatal(err)
		}
		r := rng.New(seed)
		var num, den float64
		for rep := 0; rep < 200; rep++ {
			z := SampleFromFactor(l, r)
			for i := 1; i < len(z); i++ {
				num += z[i] * z[i-1]
				den += z[i] * z[i]
			}
		}
		return num / den
	}
	cs := corr(strong, 11)
	cw := corr(weak, 12)
	if cs < 0.5 {
		t.Errorf("strong field neighbor correlation too low: %g", cs)
	}
	if math.Abs(cw) > 0.15 {
		t.Errorf("weak field neighbor correlation too high: %g", cw)
	}
}

// Property: any kernel evaluation lies in [0, θ1].
func TestQuickKernelBounds(t *testing.T) {
	f := func(rawVar, rawRange, rawNu, rawR float64) bool {
		p := Params{
			Variance:   0.1 + math.Abs(rawVar),
			Range:      0.01 + math.Mod(math.Abs(rawRange), 10),
			Smoothness: 0.1 + math.Mod(math.Abs(rawNu), 3),
		}
		k := NewKernel(p)
		r := math.Abs(rawR)
		v := k.At(r)
		return v >= 0 && v <= p.Variance*(1+1e-9) && !math.IsNaN(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestMatrixParallelMatchesSequential: the row-band parallel assembly must
// produce bit-identical matrices for any worker count (each element is
// computed by exactly one goroutine with the same expression).
func TestMatrixParallelMatchesSequential(t *testing.T) {
	r := rng.New(3)
	const n = 173
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: r.Float64(), Y: r.Float64()}
	}
	k := NewKernel(Params{Variance: 1.3, Range: 0.12, Smoothness: 1.5})
	want := la.NewMat(n, n)
	k.Matrix(want, pts, geom.Euclidean)
	for _, workers := range []int{1, 2, 3, 8} {
		got := la.NewMat(n, n)
		k.MatrixParallel(got, pts, geom.Euclidean, workers)
		if !got.Equalish(want, 0) {
			t.Fatalf("workers=%d: parallel assembly differs", workers)
		}
	}
}

func TestChordalMetricSPDSmoothMatern(t *testing.T) {
	// Matérn with ν = 2.5 under the chordal metric stays SPD on the sphere
	// (the motivation for the Chordal option).
	r := rng.New(32)
	pts := make([]geom.Point, 36)
	for i := range pts {
		pts[i] = geom.Point{X: r.Uniform(-180, 180), Y: r.Uniform(-85, 85)}
	}
	k := NewKernel(Params{Variance: 1, Range: 0.4, Smoothness: 2.5})
	sigma := la.NewMat(36, 36)
	k.Matrix(sigma, pts, geom.Chordal)
	AddNugget(sigma, 1e-10)
	if err := la.Potrf(sigma); err != nil {
		t.Fatalf("chordal Matérn(2.5) not SPD: %v", err)
	}
}
