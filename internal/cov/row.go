package cov

import (
	"repro/internal/geom"
	"repro/internal/la"
)

// row writes dst[j] = C(d(p, pts[j]); θ) for j < len(pts): one row of a
// covariance block, the path every generator and every prediction takes from
// points to covariances. The Go loops — geom.Distances, then apply — define
// its bits; fill reproduces them eight or four entries at a time where it
// can, from the points themselves under the Euclidean metric and from geom's
// distances under the others.
func (k *Kernel) row(dst []float64, m geom.Metric, p geom.Point, pts []geom.Point) {
	dst = dst[:len(pts)]
	if m != geom.Euclidean {
		geom.Distances(dst, m, p, pts)
		pts = nil
	}
	k.fill(dst, p, pts)
}

// useZMMRow reports whether fill may call rowZMM, and useAVXRow rowAVX: la's
// CPUID probes (AVX2 and FMA also imply the FMA path of math.Exp that both
// bodies transcribe). The tests turn the first off to run rowAVX where
// rowZMM would be picked, and both to run the Go loops.
var (
	useZMMRow = la.AVX512F
	useAVXRow = la.AVX2FMA
)

// fill writes dst[j] = C(‖p − pts[j]‖; θ), or C(dst[j]; θ) when pts is nil.
// The bodies are tried widest first: rowZMM on groups of eight, then rowAVX
// on the group of eight or the tail it declined, then the Go loops on the
// group of four or the tail rowAVX declined. Each gives the Go loops' bits.
func (k *Kernel) fill(dst []float64, p geom.Point, pts []geom.Point) {
	slow := func(lo, hi int) {
		if pts != nil {
			geom.Distances(dst[lo:hi], geom.Euclidean, p, pts[lo:hi])
		}
		k.apply(dst[lo:hi])
	}
	n := len(dst)
	if !useAVXRow || n < 4 {
		slow(0, n)
		return
	}
	var q *geom.Point // nil: the bodies read distances from dst
	if pts != nil {
		q = &pts[0]
	}
	form, variance, rng := uint64(k.form), k.P.Variance, k.P.Range
	for j := 0; j < n; {
		end := n
		if useZMMRow {
			if j = rowZMM(form, variance, rng, p.X, p.Y, k.tab, &dst[0], q, j, n); j == n {
				return
			}
			end = min(j+8, n)
		}
		j = rowAVX(form, variance, rng, p.X, p.Y, k.tab, &dst[0], q, j, end)
		if j+4 > end {
			slow(j, end)
			j = end
		} else {
			slow(j, j+4)
			j += 4
		}
	}
}
