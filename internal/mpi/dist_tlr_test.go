package mpi

import (
	"math"
	"testing"

	"repro/internal/cov"
	"repro/internal/geom"
	"repro/internal/la"
	"repro/internal/tlr"
)

// sharedTLRFactor builds the shared-memory reference: generate + compress +
// factor with the task runtime, the exact pipeline core's evaluator uses.
func sharedTLRFactor(t *testing.T, k *cov.Kernel, pts []geom.Point, nb int, tol float64, comp tlr.Compressor, nugget float64) *tlr.Matrix {
	t.Helper()
	m := tlr.NewMatrix(len(pts), nb, tol)
	spec := &tlr.GenSpec{K: k, Pts: pts, Metric: geom.Euclidean, Nugget: nugget, Comp: comp}
	if err := tlr.GenCholesky(m, spec, 2); err != nil {
		t.Fatal(err)
	}
	return m
}

func maxAbsDiff(a, b *la.Mat) float64 {
	var worst float64
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			if d := math.Abs(a.At(i, j) - b.At(i, j)); d > worst {
				worst = d
			}
		}
	}
	return worst
}

// TestDistTLRCholeskyMatchesShared factors the same Σ(θ) with the
// shared-memory TLR pipeline and the distributed one and compares every
// owned tile. The shard generates with the shared path's generator
// (tlr.Matrix.GenDiag/GenOff, per-tile compressor seeding) and the
// distributed update order is the shared DAG's serialization, so the factors
// are bit-for-bit equal on every grid shape, including ragged tiles (n=90,
// nb=16) and rectangular grids.
func TestDistTLRCholeskyMatchesShared(t *testing.T) {
	const (
		n      = 90
		nb     = 16
		tol    = 1e-7
		nugget = 1e-9
	)
	k, pts := distProblem(n)
	comp := tlr.RSVDCompressor{Seed: 42, Oversample: 8}
	ref := sharedTLRFactor(t, k, pts, nb, tol, comp, nugget)

	for _, shape := range [][2]int{{1, 1}, {2, 2}, {2, 3}} {
		grid := Grid{P: shape[0], Q: shape[1]}
		errs := RunWorld(grid.P*grid.Q, func(c *Comm) error {
			d := NewDistTLR(c.Rank(), grid, pts, geom.Euclidean, nb, tol, comp)
			d.Generate(k, nugget)
			if err := d.Cholesky(c); err != nil {
				return err
			}
			for i := 0; i < d.MT; i++ {
				for j := 0; j <= i; j++ {
					if grid.Owner(i, j) != c.Rank() {
						continue
					}
					if i == j {
						// compare lower triangles (Potrf leaves the upper
						// triangle unspecified)
						di := d.TileDim(i)
						for a := 0; a < di; a++ {
							for b := 0; b <= a; b++ {
								got, want := d.Diag(i).At(a, b), ref.Diag(i).At(a, b)
								if got != want {
									t.Errorf("grid %dx%d: diag tile %d (%d,%d): got %g want %g",
										grid.P, grid.Q, i, a, b, got, want)
									return nil
								}
							}
						}
					} else {
						got, want := d.Off(i, j), ref.Off(i, j)
						if got.Rank() != want.Rank() {
							t.Errorf("grid %dx%d: tile (%d,%d) rank %d want %d",
								grid.P, grid.Q, i, j, got.Rank(), want.Rank())
							return nil
						}
						if diff := maxAbsDiff(got.Dense(), want.Dense()); diff != 0 {
							t.Errorf("grid %dx%d: tile (%d,%d) deviates by %g",
								grid.P, grid.Q, i, j, diff)
							return nil
						}
					}
				}
			}
			return nil
		})
		for r, err := range errs {
			if err != nil {
				t.Fatalf("grid %dx%d rank %d: %v", grid.P, grid.Q, r, err)
			}
		}
	}
}

// solveVec overwrites the replicated b with A⁻¹·b: the two block solves at
// r = 1.
func solveVec(d *DistTLR, c *Comm, b []float64) error {
	bm := la.NewMatFrom(len(b), 1, b)
	if err := d.ForwardSolveMat(c, bm); err != nil {
		return err
	}
	return d.BackwardSolveMat(c, bm)
}

// TestDistTLRLogDetAndSolveMatchShared compares the distributed LogDet and
// forward/backward solves against the shared-memory path on a replicated
// right-hand side: exactly equal, the reductions being order-preserving.
func TestDistTLRLogDetAndSolveMatchShared(t *testing.T) {
	const (
		n      = 90
		nb     = 16
		tol    = 1e-7
		nugget = 1e-9
	)
	k, pts := distProblem(n)
	comp := tlr.RSVDCompressor{Seed: 42, Oversample: 8}
	ref := sharedTLRFactor(t, k, pts, nb, tol, comp, nugget)
	wantLogDet := ref.LogDet()
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = math.Sin(float64(i) * 0.7)
	}
	want := append([]float64(nil), rhs...)
	wm := la.NewMatFrom(n, 1, want)
	ref.ForwardSolveMat(wm)
	ref.BackwardSolveMat(wm)

	for _, shape := range [][2]int{{1, 1}, {2, 2}, {2, 3}} {
		grid := Grid{P: shape[0], Q: shape[1]}
		size := grid.P * grid.Q
		logDets := make([]float64, size)
		sols := make([][]float64, size)
		errs := RunWorld(size, func(c *Comm) error {
			d := NewDistTLR(c.Rank(), grid, pts, geom.Euclidean, nb, tol, comp)
			d.Generate(k, nugget)
			if err := d.Cholesky(c); err != nil {
				return err
			}
			ld, err := d.LogDet(c)
			if err != nil {
				return err
			}
			logDets[c.Rank()] = ld
			b := append([]float64(nil), rhs...)
			if err := solveVec(d, c, b); err != nil {
				return err
			}
			sols[c.Rank()] = b
			return nil
		})
		for r, err := range errs {
			if err != nil {
				t.Fatalf("grid %dx%d rank %d: %v", grid.P, grid.Q, r, err)
			}
		}
		for r := 0; r < size; r++ {
			if logDets[r] != wantLogDet {
				t.Fatalf("grid %dx%d rank %d: logdet %g want %g", grid.P, grid.Q, r, logDets[r], wantLogDet)
			}
			for i := range want {
				if sols[r][i] != want[i] {
					t.Fatalf("grid %dx%d rank %d: solution[%d] = %g want %g",
						grid.P, grid.Q, r, i, sols[r][i], want[i])
				}
			}
		}
	}
}

// TestDistTLRForwardSolveMatMatchesShared checks the BLAS3 forward solve
// used by prediction variances, and the backward solve after it. Unlike the factors, the log-determinant and
// the vector solves it is held to a tolerance, not to equality (measured
// 6.7e-16): a remote contribution L_ij·B_j is formed in a zeroed buffer and
// then added to the row block, where the shared path accumulates it in place.
func TestDistTLRForwardSolveMatMatchesShared(t *testing.T) {
	const (
		n   = 64
		nb  = 16
		tol = 1e-7
	)
	k, pts := distProblem(n)
	comp := tlr.SVDCompressor{}
	ref := sharedTLRFactor(t, k, pts, nb, tol, comp, 1e-9)
	rhs := la.NewMat(n, 3)
	for i := 0; i < n; i++ {
		for j := 0; j < 3; j++ {
			rhs.Set(i, j, math.Cos(float64(i*3+j)*0.3))
		}
	}
	want := rhs.Clone()
	ref.ForwardSolveMat(want)
	wantFull := want.Clone()
	ref.BackwardSolveMat(wantFull)

	grid := Grid{P: 2, Q: 2}
	got, gotFull := make([]*la.Mat, 4), make([]*la.Mat, 4)
	errs := RunWorld(4, func(c *Comm) error {
		d := NewDistTLR(c.Rank(), grid, pts, geom.Euclidean, nb, tol, comp)
		d.Generate(k, 1e-9)
		if err := d.Cholesky(c); err != nil {
			return err
		}
		b := rhs.Clone()
		if err := d.ForwardSolveMat(c, b); err != nil {
			return err
		}
		got[c.Rank()] = b
		gotFull[c.Rank()] = b.Clone()
		return d.BackwardSolveMat(c, gotFull[c.Rank()])
	})
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	for r := 0; r < 4; r++ {
		if diff := maxAbsDiff(got[r], want); diff > 1e-9 {
			t.Fatalf("rank %d: ForwardSolveMat deviates by %g", r, diff)
		}
		if diff := maxAbsDiff(gotFull[r], wantFull); diff > 1e-9 {
			t.Fatalf("rank %d: BackwardSolveMat deviates by %g", r, diff)
		}
	}
}

// TestDistTLRWorldReuse factors twice on one World with different θ — the
// evaluator's reuse pattern. A leftover message from evaluation 1 would
// corrupt evaluation 2; exact recipient sets guarantee drained mailboxes.
func TestDistTLRWorldReuse(t *testing.T) {
	const (
		n   = 90
		nb  = 16
		tol = 1e-7
	)
	_, pts := distProblem(n)
	comp := tlr.RSVDCompressor{Seed: 42, Oversample: 8}
	thetas := []cov.Params{
		{Variance: 1, Range: 0.1, Smoothness: 0.5},
		{Variance: 1.7, Range: 0.23, Smoothness: 1.1},
	}
	grid := Grid{P: 2, Q: 3}
	w := NewWorld(6)
	shards := make([]*DistTLR, 6)
	for _, th := range thetas {
		kern := cov.NewKernel(th)
		ref := sharedTLRFactor(t, kern, pts, nb, tol, comp, 1e-9)
		wantLogDet := ref.LogDet()
		logDets := make([]float64, 6)
		errs := w.Run(func(c *Comm) error {
			d := shards[c.Rank()]
			if d == nil {
				d = NewDistTLR(c.Rank(), grid, pts, geom.Euclidean, nb, tol, comp)
				shards[c.Rank()] = d
			}
			d.Generate(kern, 1e-9)
			if err := d.Cholesky(c); err != nil {
				return err
			}
			ld, err := d.LogDet(c)
			if err != nil {
				return err
			}
			logDets[c.Rank()] = ld
			return nil
		})
		for r, err := range errs {
			if err != nil {
				t.Fatalf("theta %+v rank %d: %v", th, r, err)
			}
		}
		for r := 0; r < 6; r++ {
			if logDets[r] != wantLogDet {
				t.Fatalf("theta %+v rank %d: logdet %g want %g", th, r, logDets[r], wantLogDet)
			}
		}
	}
}

// TestDistTLRNotSPDFailsEverywhere: a matrix with a negative diagonal fails
// on every rank in agreement, and the World stays reusable afterwards.
func TestDistTLRNotSPDFailsEverywhere(t *testing.T) {
	const n, nb = 64, 16
	k, pts := distProblem(n)
	grid := Grid{P: 2, Q: 2}
	w := NewWorld(4)
	errs := w.Run(func(c *Comm) error {
		d := NewDistTLR(c.Rank(), grid, pts, geom.Euclidean, nb, 1e-7, tlr.SVDCompressor{})
		d.Generate(k, 1e-9)
		// wreck every owned diagonal tile
		for i := 0; i < d.MT; i++ {
			if t := d.Diag(i); t != nil {
				for a := 0; a < t.Rows; a++ {
					t.Set(a, a, -1)
				}
			}
		}
		return d.Cholesky(c)
	})
	for r, err := range errs {
		if err == nil {
			t.Fatalf("rank %d should report the SPD failure", r)
		}
	}
	// the same World must still work for a healthy factorization
	errs = w.Run(func(c *Comm) error {
		d := NewDistTLR(c.Rank(), grid, pts, geom.Euclidean, nb, 1e-7, tlr.SVDCompressor{})
		d.Generate(k, 1e-9)
		return d.Cholesky(c)
	})
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: world not reusable after failure: %v", r, err)
		}
	}
}

// TestRunWorldRankCounts runs the distributed pipeline at 1, 2 and 6 ranks
// (under -race in CI) to flush data races in the mailbox and counter paths.
func TestRunWorldRankCounts(t *testing.T) {
	const n, nb = 64, 16
	k, pts := distProblem(n)
	for _, size := range []int{1, 2, 6} {
		grid := SquarestGrid(size)
		errs := RunWorld(size, func(c *Comm) error {
			d := NewDistTLR(c.Rank(), grid, pts, geom.Euclidean, nb, 1e-7, tlr.SVDCompressor{})
			d.Generate(k, 1e-9)
			if err := d.Cholesky(c); err != nil {
				return err
			}
			_, err := d.LogDet(c)
			return err
		})
		for r, err := range errs {
			if err != nil {
				t.Fatalf("size %d rank %d: %v", size, r, err)
			}
		}
	}
}

// TestCommStatsCountTraffic: a 2×2 distributed factorization moves bytes and
// the per-rank counters see them; a 1×1 grid moves none.
func TestCommStatsCountTraffic(t *testing.T) {
	const n, nb = 64, 16
	k, pts := distProblem(n)
	w := NewWorld(4)
	grid := Grid{P: 2, Q: 2}
	w.Run(func(c *Comm) error {
		d := NewDistTLR(c.Rank(), grid, pts, geom.Euclidean, nb, 1e-7, tlr.SVDCompressor{})
		d.Generate(k, 1e-9)
		return d.Cholesky(c)
	})
	var totalSent, totalRecv int64
	for r := 0; r < 4; r++ {
		st := w.Stats(r)
		totalSent += st.BytesSent
		totalRecv += st.BytesRecv
	}
	if totalSent == 0 || totalSent != totalRecv {
		t.Fatalf("stats: sent %d recv %d (want equal, nonzero)", totalSent, totalRecv)
	}

	w1 := NewWorld(1)
	w1.Run(func(c *Comm) error {
		d := NewDistTLR(c.Rank(), Grid{P: 1, Q: 1}, pts, geom.Euclidean, nb, 1e-7, tlr.SVDCompressor{})
		d.Generate(k, 1e-9)
		if err := d.Cholesky(c); err != nil {
			return err
		}
		_, err := d.LogDet(c)
		return err
	})
	if st := w1.Stats(0); st.BytesSent != 0 || st.BytesRecv != 0 {
		t.Fatalf("single rank should move no bytes, got %+v", st)
	}
}
