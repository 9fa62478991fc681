//go:build amd64

package cov

import "repro/internal/geom"

// rowAVX is the AVX2+FMA body of Kernel.row (row_amd64.s). From index j it
// writes whole groups of four, dst[i] = C(d(p, pts[i]); θ) with p = (px, py)
// under the Euclidean metric, or C(dst[i]; θ) when pts is nil, and returns
// the index of the first group it did not write: a group with a lane off the
// straight-line path of the Go loops, or the tail of fewer than four. form
// is any but powExp; tab is the table of the tabulated form.
//
//go:noescape
func rowAVX(form uint64, variance, rng, px, py float64, tab *corrTable, dst *float64, pts *geom.Point, j, n int) int
