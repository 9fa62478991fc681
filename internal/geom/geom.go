// Package geom provides the spatial-geometry substrate: location generation
// (the paper's perturbed-grid scheme, §VII, plus clustered geometries),
// distance metrics (Euclidean and great-circle/haversine), the spatial
// ordering engine (Morton and Hilbert space-filling curves and KD-tree block
// clustering — see Ordering — which give the off-diagonal tiles of the
// covariance matrix the rank decay TLR compression exploits), and
// rectangular region partitioning used by the real-dataset experiments.
package geom

import (
	"math"

	"repro/internal/rng"
)

// Point is a spatial location. For planar data (X, Y) are unit-square
// coordinates; for spherical data X is longitude and Y latitude, in degrees.
type Point struct {
	X, Y float64
}

// Metric measures the distance between two points.
type Metric int

const (
	// Euclidean is the planar L2 distance (synthetic experiments).
	Euclidean Metric = iota
	// GreatCircle is the haversine distance on a unit sphere with
	// coordinates in degrees (real-dataset experiments, paper eq. 6).
	GreatCircle
	// GreatCircleEarth100km is the haversine distance on an Earth-radius
	// sphere measured in units of 100 km (the working unit of the simulated
	// wind-speed dataset; Earth radius 6371 km → r = 63.71).
	GreatCircleEarth100km
	// Chordal is the straight-line (through-the-sphere) distance on the
	// unit sphere: 2·sin(gcd/2). Unlike the great-circle metric, Matérn
	// covariances of any smoothness remain positive definite under the
	// chordal metric, so it is the safe choice for ν > 1/2 on spheres.
	Chordal
)

// Distance returns the distance between a and b under m.
func Distance(m Metric, a, b Point) float64 {
	switch m {
	case Euclidean:
		return euclid(a, b)
	case GreatCircle:
		return Haversine(a, b, 1)
	case GreatCircleEarth100km:
		return Haversine(a, b, 63.71)
	case Chordal:
		return 2 * math.Sin(Haversine(a, b, 1)/2)
	default:
		panic("geom: unknown metric")
	}
}

func euclid(a, b Point) float64 {
	dx := a.X - b.X
	dy := a.Y - b.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// Distances fills dst[j] with Distance(m, p, pts[j]) — one row of a distance
// block, with the metric resolved once for the planar case that every
// covariance tile of a synthetic fit runs.
func Distances(dst []float64, m Metric, p Point, pts []Point) {
	dst = dst[:len(pts)]
	if m == Euclidean {
		for j, q := range pts {
			dst[j] = euclid(p, q)
		}
		return
	}
	for j, q := range pts {
		dst[j] = Distance(m, p, q)
	}
}

// Haversine returns the great-circle distance between two (lon, lat) points
// given in degrees, on a sphere of radius r (paper eq. 6).
func Haversine(a, b Point, r float64) float64 {
	const degToRad = math.Pi / 180
	phi1 := a.Y * degToRad
	phi2 := b.Y * degToRad
	dPhi := phi2 - phi1
	dLam := (b.X - a.X) * degToRad
	h := hav(dPhi) + math.Cos(phi1)*math.Cos(phi2)*hav(dLam)
	if h > 1 {
		h = 1
	}
	return 2 * r * math.Asin(math.Sqrt(h))
}

func hav(theta float64) float64 {
	s := math.Sin(theta / 2)
	return s * s
}

// GeneratePerturbedGrid produces n irregularly spaced locations in the unit
// square using the paper's scheme: a ⌈√n⌉×⌈√n⌉ regular grid with each point
// jittered by U(−0.4, 0.4) grid cells, guaranteeing no two locations are too
// close. When n is not a perfect square a uniform random subset of grid cells
// is used. The output order is the raw grid order; callers who want TLR-
// friendly ordering should apply MortonOrder.
func GeneratePerturbedGrid(n int, r *rng.Rand) []Point {
	if n <= 0 {
		return nil
	}
	m := int(math.Ceil(math.Sqrt(float64(n))))
	cells := m * m
	pts := make([]Point, 0, n)
	selected := make([]bool, cells)
	if cells == n {
		for i := range selected {
			selected[i] = true
		}
	} else {
		for _, idx := range r.Perm(cells)[:n] {
			selected[idx] = true
		}
	}
	inv := 1 / float64(m)
	for row := 0; row < m; row++ {
		for col := 0; col < m; col++ {
			if !selected[row*m+col] {
				continue
			}
			x := (float64(row) + 0.5 + r.Uniform(-0.4, 0.4)) * inv
			y := (float64(col) + 0.5 + r.Uniform(-0.4, 0.4)) * inv
			pts = append(pts, Point{X: x, Y: y})
		}
	}
	return pts
}

// GenerateGrid produces an exact m×m regular unit-square grid (used by the
// simulated raster datasets, which mimic gridded satellite/model output).
func GenerateGrid(m int) []Point {
	pts := make([]Point, 0, m*m)
	inv := 1 / float64(m)
	for row := 0; row < m; row++ {
		for col := 0; col < m; col++ {
			pts = append(pts, Point{X: (float64(row) + 0.5) * inv, Y: (float64(col) + 0.5) * inv})
		}
	}
	return pts
}

// MortonOrder returns a permutation that sorts pts along the Morton (Z-order)
// space-filling curve at 32 bits per axis. Applying it to both locations and
// measurements makes nearby-in-space points nearby-in-index, which is what
// gives off-diagonal covariance tiles their low numerical rank. (The earlier
// 16-bit quantization aliased clustered or ≥100k-point datasets onto
// identical codes, silently degrading locality to input order.)
func MortonOrder(pts []Point) []int {
	if len(pts) == 0 {
		return nil
	}
	xs, ys := quantize32(pts)
	codes := make([]uint64, len(pts))
	for i := range codes {
		codes[i] = interleave32(xs[i], ys[i])
	}
	return permByCode(codes)
}

// interleave32 interleaves the 32 bits of x and y into a 64-bit Morton code
// (x in even positions).
func interleave32(x, y uint32) uint64 {
	return spread(x) | spread(y)<<1
}

func spread(v uint32) uint64 {
	x := uint64(v)
	x = (x | x<<16) & 0x0000ffff0000ffff
	x = (x | x<<8) & 0x00ff00ff00ff00ff
	x = (x | x<<4) & 0x0f0f0f0f0f0f0f0f
	x = (x | x<<2) & 0x3333333333333333
	x = (x | x<<1) & 0x5555555555555555
	return x
}

// ApplyPerm returns pts permuted by perm (pts[perm[0]], pts[perm[1]], …).
func ApplyPerm(pts []Point, perm []int) []Point {
	out := make([]Point, len(perm))
	for i, p := range perm {
		out[i] = pts[p]
	}
	return out
}

// ApplyPermFloat permutes a measurement vector with the same permutation.
func ApplyPermFloat(v []float64, perm []int) []float64 {
	out := make([]float64, len(perm))
	for i, p := range perm {
		out[i] = v[p]
	}
	return out
}

// MinPairDistance returns the smallest pairwise distance among pts under m.
// It is O(n²) and intended for test-sized inputs.
func MinPairDistance(m Metric, pts []Point) float64 {
	best := math.Inf(1)
	for i := range pts {
		for j := i + 1; j < len(pts); j++ {
			if d := Distance(m, pts[i], pts[j]); d < best {
				best = d
			}
		}
	}
	return best
}
