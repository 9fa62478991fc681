package cov

import (
	"repro/internal/geom"
	"repro/internal/la"
)

// row writes dst[j] = C(d(p, pts[j]); θ) for j < len(pts): one row of a
// covariance block, the path every generator and every prediction takes from
// points to covariances. The Go loops — geom.Distances, then apply — define
// its bits; fill reproduces them four entries at a time where it can, from
// the points themselves under the Euclidean metric and from geom's distances
// under the others.
func (k *Kernel) row(dst []float64, m geom.Metric, p geom.Point, pts []geom.Point) {
	dst = dst[:len(pts)]
	if m != geom.Euclidean {
		geom.Distances(dst, m, p, pts)
		pts = nil
	}
	k.fill(dst, p, pts)
}

// fill writes dst[j] = C(‖p − pts[j]‖; θ), or C(dst[j]; θ) when pts is nil.
// Where the CPU has AVX2 and FMA (la's one CPUID probe, which also implies
// the FMA path of math.Exp that rowAVX transcribes), rowAVX does the work;
// the groups of four it declines, the tail past the last whole group, the
// powered exponential (math.Pow has no vector body) and every other CPU run
// the Go loops.
func (k *Kernel) fill(dst []float64, p geom.Point, pts []geom.Point) {
	slow := func(lo, hi int) {
		if pts != nil {
			geom.Distances(dst[lo:hi], geom.Euclidean, p, pts[lo:hi])
		}
		k.apply(dst[lo:hi])
	}
	n := len(dst)
	if !la.AVX2FMA || k.form == powExp || n < 4 {
		slow(0, n)
		return
	}
	var q *geom.Point // nil: rowAVX reads distances from dst
	if pts != nil {
		q = &pts[0]
	}
	for j := 0; ; j += 4 {
		j = rowAVX(uint64(k.form), k.P.Variance, k.P.Range, p.X, p.Y, k.tab, &dst[0], q, j, n)
		if j+4 > n {
			slow(j, n)
			return
		}
		slow(j, j+4)
	}
}
