package core

import (
	"fmt"

	"repro/internal/cov"
	"repro/internal/geom"
	"repro/internal/rng"
)

// Synthetic is a generated dataset split into fitting and held-out parts
// (paper Fig. 2: ◦ points fit the likelihood, × points validate prediction).
type Synthetic struct {
	Truth cov.Params
	Train *Problem
	// TestPoints/TestZ are the held-out locations and their true values.
	TestPoints []geom.Point
	TestZ      []float64
}

// GenerateSynthetic samples one realization of a zero-mean Gaussian random
// field with Matérn parameters theta at n perturbed-grid locations (paper
// §VII), holding out nTest randomly chosen locations for prediction
// validation. The generation is exact (dense Cholesky), matching the paper's
// practice of generating data in exact computation regardless of the mode
// later used for estimation.
func GenerateSynthetic(n, nTest int, theta cov.Params, seed uint64) (*Synthetic, error) {
	if nTest < 0 || nTest >= n {
		return nil, fmt.Errorf("core: nTest=%d must be in [0, n=%d)", nTest, n)
	}
	if err := theta.Validate(); err != nil {
		return nil, err
	}
	r := rng.New(seed)
	pts := geom.GeneratePerturbedGrid(n, r)
	k := cov.NewKernel(theta)
	z, err := cov.SampleField(k, pts, geom.Euclidean, r.Split(1))
	if err != nil {
		return nil, err
	}
	perm := r.Split(2).Perm(n)
	testIdx := perm[:nTest]
	isTest := make([]bool, n)
	for _, i := range testIdx {
		isTest[i] = true
	}
	trainPts := make([]geom.Point, 0, n-nTest)
	trainZ := make([]float64, 0, n-nTest)
	testPts := make([]geom.Point, 0, nTest)
	testZ := make([]float64, 0, nTest)
	for i := 0; i < n; i++ {
		if isTest[i] {
			testPts = append(testPts, pts[i])
			testZ = append(testZ, z[i])
		} else {
			trainPts = append(trainPts, pts[i])
			trainZ = append(trainZ, z[i])
		}
	}
	// The training set leaves Morton-sorted, the order every session but a
	// TLR one runs in, so those sessions find the identity and copy nothing.
	sorted := geom.Morton.Permutation(trainPts)
	prob, err := NewProblem(geom.ApplyPerm(trainPts, sorted), geom.ApplyPermFloat(trainZ, sorted), geom.Euclidean)
	if err != nil {
		return nil, err
	}
	return &Synthetic{Truth: theta, Train: prob, TestPoints: testPts, TestZ: testZ}, nil
}

// GenerateSyntheticReplicates draws nrep measurement vectors over one shared
// location set (the paper's Monte-Carlo design: "one location matrix and 100
// different measurement vectors"), returning one Problem per replicate, each
// Morton-sorted like GenerateSynthetic's training set.
func GenerateSyntheticReplicates(n, nrep int, theta cov.Params, seed uint64) ([]*Problem, error) {
	if err := theta.Validate(); err != nil {
		return nil, err
	}
	r := rng.New(seed)
	pts := geom.GeneratePerturbedGrid(n, r)
	k := cov.NewKernel(theta)
	l, err := cov.FieldFactor(k, pts, geom.Euclidean)
	if err != nil {
		return nil, err
	}
	sorted := geom.Morton.Permutation(pts)
	pts = geom.ApplyPerm(pts, sorted)
	out := make([]*Problem, nrep)
	for rep := 0; rep < nrep; rep++ {
		z := cov.SampleFromFactor(l, r.Split(uint64(rep)+10))
		p, err := NewProblem(pts, geom.ApplyPermFloat(z, sorted), geom.Euclidean)
		if err != nil {
			return nil, err
		}
		out[rep] = p
	}
	return out, nil
}
