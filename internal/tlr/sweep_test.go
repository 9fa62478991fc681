package tlr

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/cov"
	"repro/internal/geom"
	"repro/internal/la"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/runtime"
)

// maternTile returns the nb×nb block of a ν = 0.6 Matérn covariance between
// two neighbouring runs of nb Morton-ordered perturbed-grid points: the
// subdiagonal tile, the highest-rank tile of its tile column.
func maternTile(nb int) *la.Mat {
	pts := geom.GeneratePerturbedGrid(2*nb, rng.New(uint64(nb)))
	pts = geom.ApplyPerm(pts, geom.MortonOrder(pts))
	k := cov.NewKernel(cov.Params{Variance: 1, Range: 0.1, Smoothness: 0.6})
	a := la.NewMat(nb, nb)
	k.Block(a, pts[nb:], pts[:nb], geom.Euclidean)
	return a
}

// basisGaps measures how far a compressed tile is from the form the
// structured update extendBases builds on: the largest off-diagonal entry of
// UᵀU relative to the norms of its two columns, and ‖VᵀV − I‖_max.
func basisGaps(c *CompTile) (u, v float64) {
	k := c.Rank()
	gu, gv := la.NewMat(k, k), la.NewMat(k, k)
	la.Gemm(1, c.U, la.Transpose, c.U, la.NoTrans, 0, gu)
	la.Gemm(1, c.V, la.Transpose, c.V, la.NoTrans, 0, gv)
	for i := 0; i < k; i++ {
		v = max(v, math.Abs(gv.At(i, i)-1))
		for j := 0; j < i; j++ {
			u = max(u, math.Abs(gu.At(i, j))/math.Sqrt(gu.At(i, i)*gu.At(j, j)))
			v = max(v, math.Abs(gv.At(i, j)))
		}
	}
	return u, v
}

// Every factor tile of the sweep comes straight out of the compressor, so
// the randomized compressor's truncation alone must keep each tile within
// tol: its error is bounded by tol·‖A‖_F, its rank is within one of the
// exact SVD's, and its factors carry the orthogonal bases a structured update
// reads — whatever rank hint it is given: none (also what a tile in the first
// column or beside a dense (DE) neighbour gets), 1, the exact rank, and the
// full dimension.
func TestRSVDTruncationBound(t *testing.T) {
	for _, nb := range []int{64, 128, 160, 512} {
		a := maternTile(nb)
		aF := a.FrobNorm()
		for _, tol := range []float64{1e-5, 1e-7, 1e-9} {
			t.Run(fmt.Sprintf("nb%d/tol%g", nb, tol), func(t *testing.T) {
				want := CompressSVD(a, tol, 0, 0).Rank()
				for _, hint := range []int{0, 1, want, nb} {
					c := CompressRSVD(a, tol, tileSeed(1, 0), hint)
					diff := c.Dense()
					diff.Sub(a)
					if e := diff.FrobNorm(); e > tol*aF {
						t.Errorf("hint %d: ‖A − UVᵀ‖_F = %.3g > tol·‖A‖_F = %.3g", hint, e, tol*aF)
					}
					if c.Rank() < want-1 || c.Rank() > want+1 {
						t.Errorf("hint %d: rank %d, svd's %d", hint, c.Rank(), want)
					}
					if u, v := basisGaps(c); u > gramSlack || v > gramSlack {
						t.Errorf("hint %d: basis gaps U %.3g, V %.3g > %g", hint, u, v, gramSlack)
					}
				}
			})
		}
	}
}

// The rank hint of trsm(i, j) is the rank of the final L_{i,j−1}: 0 in the
// first tile column and beside a dense (DE) neighbour, so the hint is a
// function of tiles the task already reads and the factor stays bitwise the
// same at one worker and at three, in core and out.
func TestSweepRankHint(t *testing.T) {
	const n, nb = 620, 64
	k, pts := genTestSetup(t, n)
	de := func(mt, i, j int) bool { return i == 5 && j == 1 }
	var mu sync.Mutex
	spec := func(hints map[uint64]int) *GenSpec {
		comp := func(a *la.Mat, tol float64, seed uint64, hint int) *CompTile {
			mu.Lock()
			hints[seed] = hint
			mu.Unlock()
			return CompressRSVD(a, tol, seed, hint)
		}
		return &GenSpec{K: k, Pts: pts, Metric: geom.Euclidean, Nugget: 1e-6, Comp: comp, ForceMiss: de}
	}
	hints := map[uint64]int{}
	ref := NewMatrix(n, nb, 1e-7)
	if err := GenCholesky(ref, spec(hints), 1); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < ref.MT; i++ {
		for j := 0; j < i; j++ {
			want := 0
			if j > 0 && !de(ref.MT, i, j-1) {
				want = ref.Off(i, j-1).Rank()
			}
			if got := hints[tileSeed(i, j)]; got != want {
				t.Errorf("tile (%d,%d): hint %d, want %d", i, j, got, want)
			}
		}
	}
	if !ref.Off(5, 1).IsDense() {
		t.Fatal("ForceMiss left tile (5,1) compressed")
	}
	want := ref.ToDense()
	for _, workers := range []int{1, 3} {
		for _, ooc := range []bool{false, true} {
			m := NewMatrix(n, nb, 1e-7)
			if ooc {
				c, err := NewSpillCache(t.TempDir(), MinMemBudget(nb, workers))
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				c.Bind(m)
			}
			if err := GenCholesky(m, spec(map[uint64]int{}), workers); err != nil {
				t.Fatal(err)
			}
			if !exactEqual(m.ToDense(), want) {
				t.Fatalf("%d workers, out of core %t: factor differs from one worker's in core", workers, ooc)
			}
		}
	}
}

// The sweep's contract: one fused execution compresses each off-diagonal
// tile exactly once and recompresses nothing; out of core at the smallest
// budget it keeps the resident tiles within that budget plus the working set
// in flight (each task pins at most three tiles); and the factor is bitwise
// the in-core one at one worker and at three, in core and out.
func TestSweepOutOfCoreAndCompressOnce(t *testing.T) {
	const n, nb = 620, 64 // a ragged last tile row
	k, pts := genTestSetup(t, n)
	spec := func() *GenSpec {
		return &GenSpec{K: k, Pts: pts, Metric: geom.Euclidean, Nugget: 1e-6, Comp: CompressRSVD}
	}
	ref := NewMatrix(n, nb, 1e-7)
	before := obs.Default().Snapshot()
	if err := GenCholesky(ref, spec(), 1); err != nil {
		t.Fatal(err)
	}
	d := obs.Default().Snapshot().Sub(before).Counters
	if tiles := int64(ref.MT * (ref.MT - 1) / 2); d["tlr.compress.calls"] != tiles {
		t.Errorf("%d compressions for %d off-diagonal tiles", d["tlr.compress.calls"], tiles)
	}
	if d["tlr.recompress.calls"] != 0 {
		t.Errorf("%d recompressions, want 0", d["tlr.recompress.calls"])
	}
	want := ref.ToDense()

	for _, workers := range []int{1, 3} {
		m := NewMatrix(n, nb, 1e-7)
		if err := GenCholesky(m, spec(), workers); err != nil {
			t.Fatal(err)
		}
		if !exactEqual(m.ToDense(), want) {
			t.Fatalf("in core, %d workers: factor differs from one worker's", workers)
		}

		budget := MinMemBudget(nb, workers)
		m = NewMatrix(n, nb, 1e-7)
		c, err := NewSpillCache(t.TempDir(), budget)
		if err != nil {
			t.Fatal(err)
		}
		c.Bind(m)
		if err := GenCholesky(m, spec(), workers); err != nil {
			t.Fatal(err)
		}
		if err := c.Err(); err != nil {
			t.Fatal(err)
		}
		if hw := c.HighWater(); hw > budget+MinMemBudget(nb, workers) {
			t.Errorf("%d workers: resident high water %d > budget %d + working set %d", workers, hw, budget, MinMemBudget(nb, workers))
		}
		if c.SpillSize() == 0 {
			t.Errorf("%d workers: nothing spilled under budget %d", workers, budget)
		}
		if !exactEqual(m.ToDense(), want) {
			t.Fatalf("out of core, %d workers: factor differs from in core", workers)
		}
		c.Close()
	}
}

// BenchmarkGenCholesky times one fused generate+compress+factor execution on
// two workers, with the factor's size and the mean number of rsvd sketch
// rounds per compressed tile: at fit_tlr's shape in the benchmark (n = 1 500, nb = 128,
// ν = 0.6, rsvd at 1e-7) and at n = 6 400, nb = 512, where TLR beats the
// dense tile Cholesky on the clock. The points are in KD blocks at nb, the
// order a TLR session runs on by default. The graph and the shell are reused
// across iterations, as core's evaluator reuses them.
func BenchmarkGenCholesky(b *testing.B) {
	for _, s := range []struct{ n, nb int }{{1500, 128}, {6400, 512}} {
		b.Run(fmt.Sprintf("n%d/nb%d", s.n, s.nb), func(b *testing.B) {
			pts := geom.GeneratePerturbedGrid(s.n, rng.New(1))
			pts = geom.ApplyPerm(pts, geom.KDBlockOrder(pts, s.nb))
			spec := &GenSpec{
				K:   cov.NewKernel(cov.Params{Variance: 1, Range: 0.08, Smoothness: 0.6}),
				Pts: pts, Metric: geom.Euclidean, Nugget: 1e-9, Comp: CompressRSVD,
			}
			m := NewMatrix(s.n, s.nb, 1e-7)
			g := BuildGenCholeskyGraph(m, spec, true)
			before := obs.Default().Snapshot()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := g.Execute(runtime.ExecOptions{Workers: 2}); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			d := obs.Default().Snapshot().Sub(before).Counters
			b.ReportMetric(float64(m.Bytes())/(1<<20), "factor_MiB")
			b.ReportMetric(float64(d["tlr.rsvd.rounds"])/float64(d["tlr.compress.calls"]), "rounds/tile")
		})
	}
}
