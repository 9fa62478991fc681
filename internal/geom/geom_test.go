package geom

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestGeneratePerturbedGridCount(t *testing.T) {
	r := rng.New(1)
	for _, n := range []int{0, 1, 4, 10, 100, 400, 401} {
		pts := GeneratePerturbedGrid(n, r)
		if len(pts) != n {
			t.Fatalf("n=%d: got %d points", n, len(pts))
		}
	}
}

func TestGeneratePerturbedGridInUnitSquare(t *testing.T) {
	r := rng.New(2)
	pts := GeneratePerturbedGrid(400, r)
	for _, p := range pts {
		if p.X < 0 || p.X > 1 || p.Y < 0 || p.Y > 1 {
			t.Fatalf("point out of unit square: %+v", p)
		}
	}
}

func TestGeneratePerturbedGridSeparation(t *testing.T) {
	// Jitter is ±0.4 cells so two points in adjacent cells are at least 0.2
	// cell widths apart; with m=20 that is 0.01 in unit coordinates.
	r := rng.New(3)
	pts := GeneratePerturbedGrid(400, r)
	if d := MinPairDistance(Euclidean, pts); d < 0.2/20 {
		t.Fatalf("points too close: min distance %g", d)
	}
}

func TestGeneratePerturbedGridDeterministic(t *testing.T) {
	a := GeneratePerturbedGrid(100, rng.New(7))
	b := GeneratePerturbedGrid(100, rng.New(7))
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different locations")
		}
	}
}

func TestGenerateGrid(t *testing.T) {
	pts := GenerateGrid(3)
	if len(pts) != 9 {
		t.Fatalf("want 9 points, got %d", len(pts))
	}
	if pts[0].X != pts[1].X || pts[0].Y == pts[1].Y {
		t.Fatalf("grid order unexpected: %+v %+v", pts[0], pts[1])
	}
}

func TestHaversineKnownValues(t *testing.T) {
	// Antipodal points on the equator: distance = pi * r.
	d := Haversine(Point{X: 0, Y: 0}, Point{X: 180, Y: 0}, 1)
	if math.Abs(d-math.Pi) > 1e-12 {
		t.Errorf("antipodal: got %g want pi", d)
	}
	// Pole to pole.
	d = Haversine(Point{X: 0, Y: 90}, Point{X: 0, Y: -90}, 1)
	if math.Abs(d-math.Pi) > 1e-12 {
		t.Errorf("pole-to-pole: got %g want pi", d)
	}
	// 1 degree of longitude on the equator = pi/180.
	d = Haversine(Point{X: 0, Y: 0}, Point{X: 1, Y: 0}, 1)
	if math.Abs(d-math.Pi/180) > 1e-12 {
		t.Errorf("1 degree: got %g", d)
	}
	// Symmetry and identity.
	a, b := Point{X: 30, Y: 20}, Point{X: -40, Y: 55}
	if Haversine(a, b, 2.5) != Haversine(b, a, 2.5) {
		t.Error("haversine not symmetric")
	}
	if Haversine(a, a, 1) != 0 {
		t.Error("haversine self-distance nonzero")
	}
}

func TestDistanceMetrics(t *testing.T) {
	a, b := Point{X: 0, Y: 0}, Point{X: 3, Y: 4}
	if Distance(Euclidean, a, b) != 5 {
		t.Error("euclidean 3-4-5 failed")
	}
	if Distance(GreatCircle, a, a) != 0 {
		t.Error("great-circle self-distance nonzero")
	}
}

func TestMortonOrderIsPermutation(t *testing.T) {
	r := rng.New(4)
	pts := GeneratePerturbedGrid(257, r)
	perm := MortonOrder(pts)
	seen := make([]bool, len(pts))
	for _, p := range perm {
		if seen[p] {
			t.Fatal("morton order repeated an index")
		}
		seen[p] = true
	}
}

func TestMortonOrderImprovesLocality(t *testing.T) {
	// Successive points along the Morton curve should be much closer on
	// average than under a random ordering.
	r := rng.New(5)
	pts := GeneratePerturbedGrid(1024, r)
	perm := MortonOrder(pts)
	ordered := ApplyPerm(pts, perm)
	var mortonHop, rawHop float64
	for i := 1; i < len(pts); i++ {
		mortonHop += Distance(Euclidean, ordered[i-1], ordered[i])
		rawHop += Distance(Euclidean, pts[i-1], pts[i])
	}
	// Raw grid order jumps a full row at each row boundary but is already
	// fairly local; shuffled order is the adversarial case.
	shuf := ApplyPerm(pts, r.Perm(len(pts)))
	var shufHop float64
	for i := 1; i < len(pts); i++ {
		shufHop += Distance(Euclidean, shuf[i-1], shuf[i])
	}
	if mortonHop >= shufHop/4 {
		t.Fatalf("morton ordering not local: morton=%g shuffled=%g", mortonHop, shufHop)
	}
}

func TestApplyPerm(t *testing.T) {
	pts := []Point{{1, 1}, {2, 2}, {3, 3}}
	v := []float64{10, 20, 30}
	perm := []int{2, 0, 1}
	gp := ApplyPerm(pts, perm)
	gv := ApplyPermFloat(v, perm)
	if gp[0] != (Point{3, 3}) || gv[0] != 30 || gp[2] != (Point{2, 2}) || gv[2] != 20 {
		t.Fatalf("permutation wrong: %+v %v", gp, gv)
	}
}

func TestQuickHaversineTriangleInequality(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy float64) bool {
		norm := func(lon, lat float64) Point {
			return Point{X: math.Mod(math.Abs(lon), 360) - 180, Y: math.Mod(math.Abs(lat), 180) - 90}
		}
		a, b, c := norm(ax, ay), norm(bx, by), norm(cx, cy)
		ab := Haversine(a, b, 1)
		bc := Haversine(b, c, 1)
		ac := Haversine(a, c, 1)
		return ac <= ab+bc+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
