//go:build !amd64

package cov

import "repro/internal/geom"

// rowAVX is never called off amd64, where la.AVX2FMA is false and every row
// runs the Go loops; this stub satisfies the compiler.
func rowAVX(form uint64, variance, rng, px, py float64, tab *corrTable, dst *float64, pts *geom.Point, j, n int) int {
	panic("cov: row kernel unavailable on this architecture")
}
