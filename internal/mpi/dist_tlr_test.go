package mpi

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

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
// nb=16) and rectangular grids — among them 1×3 and 1×5, the grids a 4- or
// 6-rank World shrinks to after losing a rank.
func TestDistTLRCholeskyMatchesShared(t *testing.T) {
	const (
		n      = 90
		nb     = 16
		tol    = 1e-7
		nugget = 1e-9
	)
	k, pts := distProblem(n)
	comp := tlr.CompressRSVD
	ref := sharedTLRFactor(t, k, pts, nb, tol, comp, nugget)

	for _, shape := range [][2]int{{1, 1}, {2, 2}, {2, 3}, {1, 3}, {1, 5}} {
		grid := Grid{P: shape[0], Q: shape[1]}
		errs := RunWorld(grid.P*grid.Q, func(c *Comm) error {
			d := NewDistTLR(grid, pts, geom.Euclidean, nb, tol, comp)
			if err := d.GenCholesky(c, k, nugget); err != nil {
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
// right-hand side: exactly equal, the reductions being order-preserving, on
// every grid including the 1×3 and 1×5 a rank death shrinks to.
func TestDistTLRLogDetAndSolveMatchShared(t *testing.T) {
	const (
		n      = 90
		nb     = 16
		tol    = 1e-7
		nugget = 1e-9
	)
	k, pts := distProblem(n)
	comp := tlr.CompressRSVD
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

	for _, shape := range [][2]int{{1, 1}, {2, 2}, {2, 3}, {1, 3}, {1, 5}} {
		grid := Grid{P: shape[0], Q: shape[1]}
		size := grid.P * grid.Q
		logDets := make([]float64, size)
		sols := make([][]float64, size)
		errs := RunWorld(size, func(c *Comm) error {
			d := NewDistTLR(grid, pts, geom.Euclidean, nb, tol, comp)
			if err := d.GenCholesky(c, k, nugget); err != nil {
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
	comp := tlr.CompressSVD
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
		d := NewDistTLR(grid, pts, geom.Euclidean, nb, tol, comp)
		if err := d.GenCholesky(c, k, 1e-9); err != nil {
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
// corrupt evaluation 2; every inferred transfer has a receiving task, so the
// mailboxes drain.
func TestDistTLRWorldReuse(t *testing.T) {
	const (
		n   = 90
		nb  = 16
		tol = 1e-7
	)
	_, pts := distProblem(n)
	comp := tlr.CompressRSVD
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
				d = NewDistTLR(grid, pts, geom.Euclidean, nb, tol, comp)
				shards[c.Rank()] = d
			}
			if err := d.GenCholesky(c, kern, 1e-9); err != nil {
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

// wreckPivots is an Inject hook that makes the diagonal of every panel k it
// picks negative just before that panel's POTRF, on the rank that runs it.
func wreckPivots(d *DistTLR, pick func(k int) bool) func(graphLen, taskID int) {
	return func(graphLen, taskID int) {
		if taskID == graphLen {
			return // the step after the factorization
		}
		if task := d.graph.Tasks()[taskID]; task.Name == "potrf" {
			if k, _ := d.TileOf(task.Accesses[0].Handle); pick(k) {
				t := d.Diag(k)
				for a := 0; a < t.Rows; a++ {
					t.Set(a, a, -1)
				}
			}
		}
	}
}

// runNotSPD runs fn on w and holds it to the failure contract of a broken
// pivot: the run ends — no rank hangs — the rank owning the pivot fails with
// an error wrapping la.ErrNotPositiveDefinite, and every other rank either
// fails with one too (the World's poison) or, its owned work done before the
// failure, returns nil.
func runNotSPD(t *testing.T, w *World, pivotOwner int, fn func(c *Comm) error) {
	t.Helper()
	done := make(chan []error, 1)
	go func() { done <- w.Run(fn) }()
	var errs []error
	select {
	case errs = <-done:
	case <-time.After(time.Minute):
		t.Fatal("a rank hangs after the failed pivot")
	}
	for r, err := range errs {
		if (err != nil || r == pivotOwner) && !errors.Is(err, la.ErrNotPositiveDefinite) {
			t.Fatalf("rank %d: %v, want an error wrapping la.ErrNotPositiveDefinite", r, err)
		}
	}
}

// TestDistTLRNotSPDFailsEverywhere: a matrix whose every pivot is negative
// fails at panel 0 under the failure contract of runNotSPD, and the World
// stays reusable afterwards.
func TestDistTLRNotSPDFailsEverywhere(t *testing.T) {
	const n, nb = 64, 16
	k, pts := distProblem(n)
	grid := Grid{P: 2, Q: 2}
	w := NewWorld(4)
	runNotSPD(t, w, grid.Owner(0, 0), func(c *Comm) error {
		d := NewDistTLR(grid, pts, geom.Euclidean, nb, 1e-7, tlr.CompressSVD)
		d.Inject = wreckPivots(d, func(int) bool { return true })
		return d.GenCholesky(c, k, 1e-9)
	})
	// the same World must still work for a healthy factorization
	errs := w.Run(func(c *Comm) error {
		d := NewDistTLR(grid, pts, geom.Euclidean, nb, 1e-7, tlr.CompressSVD)
		return d.GenCholesky(c, k, 1e-9)
	})
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: world not reusable after failure: %v", r, err)
		}
	}
}

// TestDistTLRLastPivotFailsAndWorldHeals breaks only the last diagonal tile
// on a 2×2 grid — the case where every other rank finishes its owned work
// before the failure, which a per-panel agreement used to cover. The run
// fails under runNotSPD's contract, and the same World and shards then
// factor bitwise what a fresh World does.
func TestDistTLRLastPivotFailsAndWorldHeals(t *testing.T) {
	const n, nb = 64, 16
	k, pts := distProblem(n)
	grid := Grid{P: 2, Q: 2}
	newShard := func() *DistTLR {
		return NewDistTLR(grid, pts, geom.Euclidean, nb, 1e-7, tlr.CompressRSVD)
	}
	factor := func(w *World, shards []*DistTLR) [][]float64 {
		bits := make([][]float64, len(shards))
		for r, err := range w.Run(func(c *Comm) error {
			d := shards[c.Rank()]
			if err := d.GenCholesky(c, k, 1e-9); err != nil {
				return err
			}
			ld, err := d.LogDet(c)
			bits[c.Rank()] = append(ownedWords(d, c.Rank()), ld)
			return err
		}) {
			if err != nil {
				t.Fatalf("rank %d: %v", r, err)
			}
		}
		return bits
	}
	fresh := make([]*DistTLR, 4)
	for r := range fresh {
		fresh[r] = newShard()
	}
	want := factor(NewWorld(4), fresh)

	w, shards := NewWorld(4), make([]*DistTLR, 4)
	for r := range shards {
		shards[r] = newShard()
		last := shards[r].MT - 1
		shards[r].Inject = wreckPivots(shards[r], func(k int) bool { return k == last })
	}
	runNotSPD(t, w, grid.Owner(shards[0].MT-1, shards[0].MT-1), func(c *Comm) error {
		return shards[c.Rank()].GenCholesky(c, k, 1e-9)
	})
	for _, d := range shards {
		d.Inject = nil
	}
	got := factor(w, shards)
	for r := range want {
		if len(got[r]) != len(want[r]) {
			t.Fatalf("rank %d: %d words after the failure, %d on a fresh World", r, len(got[r]), len(want[r]))
		}
		for i := range want[r] {
			if math.Float64bits(got[r][i]) != math.Float64bits(want[r][i]) {
				t.Fatalf("rank %d: word %d is %v after the failure, %v on a fresh World", r, i, got[r][i], want[r][i])
			}
		}
	}
}

// ownedWords concatenates the encoded tiles rank owns — and holds nothing
// else: a received tile left in the shard fails the test.
func ownedWords(d *DistTLR, rank int) []float64 {
	var out []float64
	for i := 0; i < d.MT; i++ {
		for j := 0; j <= i; j++ {
			owned := d.Owner(i, j) == rank
			held := (i == j && d.Diag(i) != nil) || (i != j && d.Off(i, j) != nil)
			if owned != held {
				panic(fmt.Sprintf("rank %d: tile (%d,%d) owned %v, held %v", rank, i, j, owned, held))
			}
			if owned {
				out = append(out, d.EncodeTile(i, j)...)
			}
		}
	}
	return out
}

// TestRunWorldRankCounts runs the distributed pipeline at 1, 2 and 6 ranks
// (under -race in CI) to flush data races in the mailbox and counter paths.
func TestRunWorldRankCounts(t *testing.T) {
	const n, nb = 64, 16
	k, pts := distProblem(n)
	for _, size := range []int{1, 2, 6} {
		grid := SquarestGrid(size)
		errs := RunWorld(size, func(c *Comm) error {
			d := NewDistTLR(grid, pts, geom.Euclidean, nb, 1e-7, tlr.CompressSVD)
			if err := d.GenCholesky(c, k, 1e-9); err != nil {
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
		d := NewDistTLR(grid, pts, geom.Euclidean, nb, 1e-7, tlr.CompressSVD)
		return d.GenCholesky(c, k, 1e-9)
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
		d := NewDistTLR(Grid{P: 1, Q: 1}, pts, geom.Euclidean, nb, 1e-7, tlr.CompressSVD)
		if err := d.GenCholesky(c, k, 1e-9); err != nil {
			return err
		}
		_, err := d.LogDet(c)
		return err
	})
	if st := w1.Stats(0); st.BytesSent != 0 || st.BytesRecv != 0 {
		t.Fatalf("single rank should move no bytes, got %+v", st)
	}
}

// TestPlacementFollowsCholeskyRule holds the transfers runtime.Graph.Place
// infers over tlr's generate+factor DAG — the messages the ranks send — to the
// right-looking Cholesky's rule, written out here as the oracle: L_kk goes to
// the owners of (i, k), i > k; panel tile (i, k) goes to the owners of (i, j),
// k < j ≤ i, and of (a, i), a > i; each to every such rank but the tile's
// owner, once, from the POTRF or TRSM that finished it.
func TestPlacementFollowsCholeskyRule(t *testing.T) {
	const nb = 4
	for _, grid := range []Grid{{1, 1}, {1, 2}, {2, 2}, {2, 3}, {3, 3}, {1, 6}} {
		for _, mt := range []int{1, 2, 3, 5, 8, 15, 19} {
			n := mt*nb - 1 // ragged last tile
			d := NewDistTLR(grid, make([]geom.Point, n), geom.Euclidean, nb, 1e-7, tlr.CompressSVD)
			want := map[[3]int]bool{}
			add := func(i, j, to int) {
				if to != grid.Owner(i, j) {
					want[[3]int{i, j, to}] = true
				}
			}
			for k := 0; k < mt; k++ {
				for i := k + 1; i < mt; i++ {
					add(k, k, grid.Owner(i, k))
					for j := k + 1; j <= i; j++ {
						add(i, k, grid.Owner(i, j))
					}
					for a := i + 1; a < mt; a++ {
						add(i, k, grid.Owner(a, i))
					}
				}
			}
			got := map[[3]int]bool{}
			for _, tr := range d.place.Transfers {
				i, j := d.TileOf(tr.Handle)
				key := [3]int{i, j, tr.To}
				if got[key] {
					t.Fatalf("grid %dx%d, mt %d: tile (%d,%d) sent to rank %d twice", grid.P, grid.Q, mt, i, j, tr.To)
				}
				got[key] = true
				producer := "trsm"
				if i == j {
					producer = "potrf"
				}
				if name := d.graph.Tasks()[tr.From].Name; name != producer {
					t.Fatalf("grid %dx%d, mt %d: tile (%d,%d) sent after %s, want %s", grid.P, grid.Q, mt, i, j, name, producer)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("grid %dx%d, mt %d: %d transfers inferred, the rule has %d", grid.P, grid.Q, mt, len(got), len(want))
			}
			for key := range want {
				if !got[key] {
					t.Fatalf("grid %dx%d, mt %d: tile (%d,%d) never sent to rank %d", grid.P, grid.Q, mt, key[0], key[1], key[2])
				}
			}
		}
	}
}

// BenchmarkDistCholesky times one distributed generate+factor at lik_scale's
// shape (n=2400, nb=160, rsvd at 1e-7, ν=½) on 2 and 4 ranks, over a World
// and shards reused across iterations as core's evaluator reuses them.
func BenchmarkDistCholesky(b *testing.B) {
	const n, nb = 2400, 160
	k, pts := distProblem(n)
	for _, ranks := range []int{2, 4} {
		b.Run(fmt.Sprintf("ranks%d", ranks), func(b *testing.B) {
			w, shards := NewWorld(ranks), make([]*DistTLR, ranks)
			factor := func() {
				for r, err := range w.Run(func(c *Comm) error {
					if shards[c.Rank()] == nil {
						shards[c.Rank()] = NewDistTLR(SquarestGrid(ranks), pts, geom.Euclidean, nb, 1e-7, tlr.CompressRSVD)
					}
					return shards[c.Rank()].GenCholesky(c, k, 1e-9)
				}) {
					if err != nil {
						b.Fatalf("rank %d: %v", r, err)
					}
				}
			}
			factor() // builds the shards
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				factor()
			}
		})
	}
}
