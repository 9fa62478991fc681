package cluster

import (
	"testing"

	"repro/internal/cov"
	"repro/internal/geom"
	"repro/internal/mpi"
	"repro/internal/rng"
	"repro/internal/tlr"
)

func distCommPoints(n int) []geom.Point {
	r := rng.New(0xd15c)
	pts := geom.GeneratePerturbedGrid(n, r)
	return geom.Sorted(geom.Morton, pts)
}

// measureCholeskyComm runs a distributed generation and factorization and
// returns the bytes each rank sent.
func measureCholeskyComm(t *testing.T, grid mpi.Grid, n, nb int, acc float64, dense bool) []float64 {
	t.Helper()
	pts := distCommPoints(n)
	k := cov.NewKernel(cov.Params{Variance: 1, Range: 0.1, Smoothness: 0.5})
	size := grid.P * grid.Q
	world := mpi.NewWorld(size)
	sent := make([]float64, size)
	errs := world.Run(func(c *mpi.Comm) error {
		d := mpi.NewDistTLR(grid, pts, geom.Euclidean, nb, acc, tlr.CompressSVD)
		if dense {
			d.ForceMiss = func(mt, i, j int) bool { return true }
		}
		if err := d.GenCholesky(c, k, 1e-8); err != nil {
			return err
		}
		sent[c.Rank()] = float64(c.Stats().BytesSent)
		return nil
	})
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	return sent
}

// For dense factorization the message sizes are fully determined by the
// tiling, and the model prices the transfers the ranks send, so it must match
// the measured traffic exactly — including at a non-divisible n/nb with
// ragged boundary tiles.
func TestDistCholeskyCommDenseExact(t *testing.T) {
	for _, tc := range []struct {
		grid  mpi.Grid
		n, nb int
	}{
		{mpi.Grid{P: 1, Q: 1}, 96, 16},
		{mpi.Grid{P: 2, Q: 2}, 96, 16},
		{mpi.Grid{P: 2, Q: 3}, 90, 16}, // ragged last tile
	} {
		got := measureCholeskyComm(t, tc.grid, tc.n, tc.nb, 1e-7, true)
		want := DistCholeskyComm(tc.grid, tc.n, tc.nb, nil, true)
		for r := range want {
			if got[r] != want[r] {
				t.Errorf("grid %dx%d rank %d: measured %g bytes, analytic %g",
					tc.grid.P, tc.grid.Q, r, got[r], want[r])
			}
		}
	}
}

// For TLR the analytic model predicts panel-message sizes from the
// calibrated rank model; the acceptance band is a factor of two per rank.
func TestDistCholeskyCommTLRWithinTwoX(t *testing.T) {
	const (
		n   = 512
		nb  = 64
		acc = 1e-7
	)
	rm := CalibrateRankModel(acc, cov.Params{Variance: 1, Range: 0.1, Smoothness: 0.5}, 1024, nb)
	grid := mpi.Grid{P: 2, Q: 2}
	got := measureCholeskyComm(t, grid, n, nb, acc, false)
	want := DistCholeskyComm(grid, n, nb, rm, false)
	for r := range want {
		if want[r] == 0 {
			if got[r] != 0 {
				t.Errorf("rank %d: measured %g bytes where model predicts none", r, got[r])
			}
			continue
		}
		if ratio := got[r] / want[r]; ratio > 2 || ratio < 0.5 {
			t.Errorf("rank %d: measured %g bytes vs analytic %g (ratio %.2f)", r, got[r], want[r], ratio)
		}
	}
}

func TestDistCholeskyCommSingleRankSilent(t *testing.T) {
	sent := DistCholeskyComm(mpi.Grid{P: 1, Q: 1}, 256, 64, nil, true)
	if len(sent) != 1 || sent[0] != 0 {
		t.Fatalf("1x1 grid must predict zero traffic, got %v", sent)
	}
}
