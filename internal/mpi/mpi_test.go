package mpi

import (
	"math"
	"sync"
	"testing"

	"repro/internal/cov"
	"repro/internal/geom"
	"repro/internal/la"
	"repro/internal/rng"
	"repro/internal/tlr"
)

// TestSendRecvTagMatching: a receive takes the oldest message of its tag,
// whatever arrived before it under other tags.
func TestSendRecvTagMatching(t *testing.T) {
	w := NewWorld(2)
	done := make(chan struct{})
	go func() {
		defer close(done)
		c := w.At(1)
		// receive out of order: tag 2 first even though tag 1 arrived first
		b, err := c.Recv(0, 2)
		if err != nil {
			t.Error(err)
			return
		}
		// same-tag messages keep their send order
		for _, want := range []float64{1, 3} {
			a, err := c.Recv(0, 1)
			if err != nil {
				t.Error(err)
				return
			}
			if a[0] != want || b[0] != 2 {
				t.Errorf("tag matching broken: got %v (want %v), %v", a, want, b)
			}
		}
	}()
	c0 := w.At(0)
	c0.Send(1, 1, []float64{1})
	c0.Send(1, 2, []float64{2})
	c0.Send(1, 1, []float64{3})
	<-done
}

func TestSendCopiesData(t *testing.T) {
	w := NewWorld(2)
	buf := []float64{42}
	w.At(0).Send(1, 7, buf)
	buf[0] = -1
	got, err := w.At(1).Recv(0, 7)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 42 {
		t.Fatal("send must copy the payload")
	}
}

func TestAllreduceSum(t *testing.T) {
	const size = 6
	var wg sync.WaitGroup
	w := NewWorld(size)
	sums := make([]float64, size)
	vecs := make([][]float64, size)
	for r := 0; r < size; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := w.At(r)
			var err error
			if sums[r], err = c.AllreduceSum(50, float64(r)); err != nil {
				t.Error(err)
				return
			}
			v := make([]float64, size)
			v[r] = float64(r + 1)
			if vecs[r], err = c.AllreduceSumVec(60, v); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	for r := 0; r < size; r++ {
		if sums[r] != 15 {
			t.Fatalf("rank %d allreduce got %g", r, sums[r])
		}
		for i, v := range vecs[r] {
			if v != float64(i+1) {
				t.Fatalf("rank %d vector allreduce got %v", r, vecs[r])
			}
		}
	}
}

func TestGridOwnership(t *testing.T) {
	g := Grid{P: 2, Q: 3}
	seen := map[int]bool{}
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			o := g.Owner(i, j)
			if o < 0 || o >= 6 {
				t.Fatalf("owner %d out of range", o)
			}
			seen[o] = true
		}
	}
	if len(seen) != 6 {
		t.Fatalf("not all ranks own tiles: %v", seen)
	}
}

// distProblem builds the shared test inputs.
func distProblem(n int) (*cov.Kernel, []geom.Point) {
	r := rng.New(77)
	pts := geom.GeneratePerturbedGrid(n, r)
	pts = geom.ApplyPerm(pts, geom.MortonOrder(pts))
	return cov.NewKernel(cov.Params{Variance: 1, Range: 0.1, Smoothness: 0.5}), pts
}

// denseShard is a DistTLR shard whose off-diagonal tiles are all stored
// densely (ForceMiss ≡ true): the distributed Cholesky then runs the dense
// tiled algorithm through the same schedule and wire format as the
// compressed one.
func denseShard(rank int, grid Grid, pts []geom.Point, nb int) *DistTLR {
	d := NewDistTLR(grid, pts, geom.Euclidean, nb, 1e-12, tlr.CompressSVD)
	d.ForceMiss = func(mt, i, j int) bool { return true }
	return d
}

func TestDistributedCholeskyMatchesDense(t *testing.T) {
	for _, cfg := range []struct {
		n, nb, p, q int
	}{
		{60, 15, 2, 2},
		{90, 16, 2, 3}, // ragged tiles, rectangular grid
		{48, 12, 1, 4},
		{48, 12, 4, 1},
		{40, 40, 2, 2}, // single tile: only rank owning it works
	} {
		k, pts := distProblem(cfg.n)
		grid := Grid{P: cfg.p, Q: cfg.q}

		// dense reference
		ref := la.NewMat(cfg.n, cfg.n)
		k.Matrix(ref, pts, geom.Euclidean)
		cov.AddNugget(ref, 1e-10)
		if err := la.Potrf(ref); err != nil {
			t.Fatal(err)
		}
		wantLogDet := la.LogDetFromChol(ref)

		shards := make([]*DistTLR, cfg.p*cfg.q)
		var logDets [16]float64
		errs := RunWorld(cfg.p*cfg.q, func(c *Comm) error {
			d := denseShard(c.Rank(), grid, pts, cfg.nb)
			shards[c.Rank()] = d
			if err := d.GenCholesky(c, k, 1e-10); err != nil {
				return err
			}
			ld, err := d.LogDet(c)
			logDets[c.Rank()] = ld
			return err
		})
		for r, err := range errs {
			if err != nil {
				t.Fatalf("grid %dx%d rank %d: %v", cfg.p, cfg.q, r, err)
			}
		}
		for r := 0; r < cfg.p*cfg.q; r++ {
			if math.Abs(logDets[r]-wantLogDet) > 1e-8*math.Abs(wantLogDet) {
				t.Fatalf("grid %dx%d: rank %d logdet %g want %g", cfg.p, cfg.q, r, logDets[r], wantLogDet)
			}
		}
		// every tile of the factor, read from the shard that owns it
		var worst float64
		for i := 0; i < cfg.n; i++ {
			for j := 0; j <= i; j++ {
				ti, tj := i/cfg.nb, j/cfg.nb
				d := shards[grid.Owner(ti, tj)]
				tile := d.Diag(ti)
				if ti != tj {
					if !d.Off(ti, tj).IsDense() {
						t.Fatalf("grid %dx%d: tile (%d,%d) was compressed", cfg.p, cfg.q, ti, tj)
					}
					tile = d.Off(ti, tj).D
				}
				if diff := math.Abs(tile.At(i-ti*cfg.nb, j-tj*cfg.nb) - ref.At(i, j)); diff > worst {
					worst = diff
				}
			}
		}
		if worst > 1e-9 {
			t.Fatalf("grid %dx%d: factor deviates from dense by %g", cfg.p, cfg.q, worst)
		}
	}
}

func TestDistributedCholeskyShardsAreDisjoint(t *testing.T) {
	k, pts := distProblem(64)
	grid := Grid{P: 2, Q: 2}
	counts := make([]int, 4)
	errs := RunWorld(4, func(c *Comm) error {
		d := denseShard(c.Rank(), grid, pts, 16)
		if err := d.GenCholesky(c, k, 1e-10); err != nil {
			return err
		}
		// a rank keeps no tile it does not own: what it received is dropped
		for i := 0; i < d.MT; i++ {
			for j := 0; j <= i; j++ {
				if (i == j && d.Diag(i) == nil) || (i != j && d.Off(i, j) == nil) {
					continue
				}
				counts[c.Rank()]++
				if grid.Owner(i, j) != c.Rank() {
					t.Errorf("rank %d holds foreign tile (%d,%d)", c.Rank(), i, j)
				}
			}
		}
		return nil
	})
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	total := 0
	for _, ct := range counts {
		total += ct
	}
	if total != 10 { // MT=4 lower tiles = 4*5/2
		t.Fatalf("shards cover %d tiles, want 10", total)
	}
}

func TestDistributedCholeskyNotSPDFailsEverywhere(t *testing.T) {
	// A nugget of −2 under a unit variance makes every diagonal entry −1: the
	// first pivot fails, under runNotSPD's contract.
	k, pts := distProblem(32)
	grid := Grid{P: 2, Q: 2}
	runNotSPD(t, NewWorld(4), grid.Owner(0, 0), func(c *Comm) error {
		d := denseShard(c.Rank(), grid, pts, 8)
		return d.GenCholesky(c, k, -2)
	})
}
