//go:build !amd64

package cov

import "repro/internal/geom"

// rowAVX and rowZMM are never called off amd64, where la.AVX2FMA and
// la.AVX512F are false and every row runs the Go loops; these stubs satisfy
// the compiler.
func rowAVX(form uint64, variance, rng, px, py float64, tab *corrTable, dst *float64, pts *geom.Point, j, n int) int {
	panic("cov: row kernel unavailable on this architecture")
}

func rowZMM(form uint64, variance, rng, px, py float64, tab *corrTable, dst *float64, pts *geom.Point, j, n int) int {
	panic("cov: row kernel unavailable on this architecture")
}
