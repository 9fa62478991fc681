package cluster

import (
	"math"
	"sort"

	"repro/internal/cov"
	"repro/internal/geom"
	"repro/internal/la"
	"repro/internal/rng"
	"repro/internal/tlr"
)

// RankModel predicts the post-compression rank of an off-diagonal Matérn
// covariance tile as a function of the tile-index distance |i−j| (tiles of
// Morton-ordered locations at index distance d cover location clusters
// roughly d tile-diameters apart) and the tile size.
//
// The model is calibrated empirically: real Matérn tiles are generated at a
// calibration tile size and compressed with the SVD backend, the measured
// mean rank is tabulated per index distance, and other tile sizes scale the
// table logarithmically — the growth H-matrix theory predicts for 2D kernel
// interactions.
type RankModel struct {
	Accuracy float64
	CalNB    int
	// byDist[d] is the calibrated mean rank at index distance ~d (geometric
	// distance buckets).
	dists []int
	ranks []float64
}

// CalibrateRankModel measures ranks on a synthetic perturbed-grid Matérn
// field with the given parameters. calN controls the calibration problem
// size (default 2048 when ≤ 0); nbCal the calibration tile size (default
// 256 when ≤ 0).
func CalibrateRankModel(acc float64, theta cov.Params, calN, nbCal int) *RankModel {
	if calN <= 0 {
		calN = 2048
	}
	if nbCal <= 0 {
		nbCal = 256
	}
	r := rng.New(0xca11b)
	pts := geom.GeneratePerturbedGrid(calN, r)
	pts = geom.Sorted(geom.Morton, pts)
	k := cov.NewKernel(theta)
	mt := calN / nbCal

	sums := make(map[int]float64)
	counts := make(map[int]int)
	buf := la.NewMat(nbCal, nbCal)
	for i := 0; i < mt; i++ {
		for j := 0; j < i; j++ {
			k.Block(buf, pts[i*nbCal:(i+1)*nbCal], pts[j*nbCal:(j+1)*nbCal], geom.Euclidean)
			d := i - j
			sums[d] += float64(tlr.CompressSVD(buf, acc, 0, 0).Rank())
			counts[d]++
		}
	}
	m := &RankModel{Accuracy: acc, CalNB: nbCal}
	for d := range sums {
		m.dists = append(m.dists, d)
	}
	sort.Ints(m.dists)
	for _, d := range m.dists {
		m.ranks = append(m.ranks, sums[d]/float64(counts[d]))
	}
	return m
}

// Rank predicts the rank of tile (i, j) (index distance d = |i−j| ≥ 1) at
// tile size nb. Predictions are clamped to [1, nb].
func (m *RankModel) Rank(nb, d int) int {
	if d < 1 {
		d = 1
	}
	base := m.lookup(d)
	// Logarithmic tile-size scaling relative to the calibration size.
	scale := 1.0
	if nb != m.CalNB && nb > 1 && m.CalNB > 1 {
		scale = math.Log2(float64(nb)) / math.Log2(float64(m.CalNB))
		if scale < 0.25 {
			scale = 0.25
		}
	}
	k := int(math.Ceil(base * scale))
	if k < 1 {
		k = 1
	}
	if k > nb {
		k = nb
	}
	return k
}

// lookup interpolates the calibration table, extrapolating flat beyond its
// ends (ranks saturate at long distance).
func (m *RankModel) lookup(d int) float64 {
	if len(m.dists) == 0 {
		return 8 // uncalibrated fallback
	}
	if d <= m.dists[0] {
		return m.ranks[0]
	}
	last := len(m.dists) - 1
	if d >= m.dists[last] {
		return m.ranks[last]
	}
	i := sort.SearchInts(m.dists, d)
	// dists[i-1] < d < dists[i]
	x0, x1 := float64(m.dists[i-1]), float64(m.dists[i])
	y0, y1 := m.ranks[i-1], m.ranks[i]
	return y0 + (y1-y0)*(float64(d)-x0)/(x1-x0)
}
