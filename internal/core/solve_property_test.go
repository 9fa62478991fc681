package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/cov"
	"repro/internal/geom"
	"repro/internal/hodlr"
	"repro/internal/la"
	"repro/internal/mpi"
	"repro/internal/rng"
	"repro/internal/runtime"
	"repro/internal/tile"
	"repro/internal/tlr"
)

// blockSolve is one format's pair of block triangular solves against a
// factored Σ, with the tolerance its own package holds A⁻¹b to against the
// dense reference (b ~ N(0, 1), absolute) and, where bench/ still has them,
// the vector shims over the pair.
type blockSolve struct {
	name              string
	tol               float64
	forward, backward func(b *la.Mat) error
	// the shims, given an n×1 block whose Data is the vector
	shimForward, shimBackward func(b *la.Mat) error
}

// blockSolves factors one seeded Σ (n points, nb-edged tiles or leaves) in
// every format that has a block solve and returns them with the dense lower
// factor they are compared against.
func blockSolves(t *testing.T, n, nb int) ([]blockSolve, *la.Mat) {
	t.Helper()
	const nugget = 1e-8
	pts := geom.GeneratePerturbedGrid(n, rng.New(2310))
	k := cov.NewKernel(theta())
	ref := la.NewMat(n, n)
	k.Matrix(ref, pts, geom.Euclidean)
	cov.AddNugget(ref, nugget)
	if err := la.Potrf(ref); err != nil {
		t.Fatal(err)
	}
	infallible := func(solve func(*la.Mat)) func(*la.Mat) error {
		return func(b *la.Mat) error { solve(b); return nil }
	}
	spec := func() *tlr.GenSpec {
		return &tlr.GenSpec{K: k, Pts: pts, Metric: geom.Euclidean, Nugget: nugget, Comp: tlr.CompressSVD}
	}

	dense := denseFactor{l: ref}

	tm := tile.NewSym(n, nb)
	tm.FillKernel(k, pts, geom.Euclidean, nugget)
	if err := tile.Cholesky(tm, 2); err != nil {
		t.Fatal(err)
	}

	lr := tlr.NewMatrix(n, nb, 1e-10)
	if err := tlr.GenCholesky(lr, spec(), 2); err != nil {
		t.Fatal(err)
	}

	ooc := tlr.NewMatrix(n, nb, 1e-10)
	g := tlr.BuildGenCholeskyGraph(ooc, spec(), true)
	cache, err := tlr.NewSpillCache(t.TempDir(), tlr.MinMemBudget(nb, 2))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cache.Close() })
	cache.Bind(ooc)
	if err := g.Execute(runtime.ExecOptions{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	if err := cache.Err(); err != nil {
		t.Fatal(err)
	}

	hm := hodlr.NewTree(n, nb, 1e-11)
	if err := hodlr.GenCholesky(hm, spec(), 2); err != nil {
		t.Fatal(err)
	}

	// ranks: a persistent 2×2 world; each solve runs on a replica per rank
	// and hands back rank 0's, as distFactor does
	world := mpi.NewWorld(4)
	shards := make([]*mpi.DistTLR, 4)
	firstErr := func(errs []error) error {
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	}
	if err := firstErr(world.Run(func(c *mpi.Comm) error {
		sh := mpi.NewDistTLR(mpi.Grid{P: 2, Q: 2}, pts, geom.Euclidean, nb, 1e-10, tlr.CompressSVD)
		shards[c.Rank()] = sh
		return sh.GenCholesky(c, k, nugget)
	})); err != nil {
		t.Fatal(err)
	}
	onRanks := func(solve func(sh *mpi.DistTLR, c *mpi.Comm, b *la.Mat) error) func(*la.Mat) error {
		return func(b *la.Mat) error {
			replicas := make([]*la.Mat, 4)
			err := firstErr(world.Run(func(c *mpi.Comm) error {
				replicas[c.Rank()] = b.Clone()
				return solve(shards[c.Rank()], c, replicas[c.Rank()])
			}))
			if err == nil {
				b.CopyFrom(replicas[0])
			}
			return err
		}
	}

	return []blockSolve{
		{name: "full-block", tol: 1e-8, forward: infallible(dense.ForwardSolveMat), backward: infallible(dense.BackwardSolveMat)},
		{name: "full-tile", tol: 1e-7, forward: infallible(tm.ForwardSolveMat), backward: infallible(tm.BackwardSolveMat),
			shimForward:  func(b *la.Mat) error { return tile.ForwardSolve(tm, b.Data, 2) },
			shimBackward: infallible(func(b *la.Mat) { tile.BackwardSolve(tm, b.Data) })},
		{name: "tlr", tol: 1e-4, forward: infallible(lr.ForwardSolveMat), backward: infallible(lr.BackwardSolveMat),
			shimForward:  infallible(func(b *la.Mat) { lr.ForwardSolve(b.Data) }),
			shimBackward: infallible(func(b *la.Mat) { lr.BackwardSolve(b.Data) })},
		{name: "tlr-ooc", tol: 1e-4, forward: infallible(ooc.ForwardSolveMat), backward: infallible(ooc.BackwardSolveMat)},
		{name: "hodlr", tol: 1e-6, forward: infallible(hm.ForwardSolveMat), backward: infallible(hm.BackwardSolveMat)},
		{name: "tlr-ranks4", tol: 1e-4,
			forward:  onRanks(func(sh *mpi.DistTLR, c *mpi.Comm, b *la.Mat) error { return sh.ForwardSolveMat(c, b) }),
			backward: onRanks(func(sh *mpi.DistTLR, c *mpi.Comm, b *la.Mat) error { return sh.BackwardSolveMat(c, b) })},
	}, ref
}

// column copies column c of b into a compact n×1 block.
func column(b *la.Mat, c int) *la.Mat { return b.View(0, c, b.Rows, 1).Clone() }

// TestBlockSolveProperties is the one check that a right-hand side is a
// block, on every format's ForwardSolveMat and BackwardSolveMat:
//
//   - a vector is r = 1: column c of an n×r solve, r ∈ {1, 3, NB, NB+5},
//     agrees with the one-column solve of that column to 1e-13·‖b_c‖, and the
//     bench shims are the one-column solve bit for bit;
//   - forward then backward is A⁻¹b against the dense factor, to the
//     tolerance the format's own package holds it to;
//   - solving in chunks cut at multiples of NB gives the bits of solving whole
//     (tile.ColumnBlocks — what PredictWithVariance's bounded memory rests on).
//
// It replaces the per-package comparisons of a block solve with the vector
// solve that existed beside it: tile.TestForwardSolveMatMatchesVector (row
// full-tile, 1e-12 then), tlr.TestSolveMatMatchesVectorSolve (row tlr, 1e-10)
// and hodlr.TestSolveMatMatchesVectorSolves (row hodlr, 1e-9).
func TestBlockSolveProperties(t *testing.T) {
	const n, nb = 150, 24
	solves, ref := blockSolves(t, n, nb)
	random := func(r int, seed uint64) *la.Mat {
		b := la.NewMat(n, r)
		rng.New(seed).NormSlice(b.Data)
		return b
	}
	for _, s := range solves {
		t.Run(s.name, func(t *testing.T) {
			must := func(err error) {
				t.Helper()
				if err != nil {
					t.Fatal(err)
				}
			}
			for dir, solve := range map[string]func(*la.Mat) error{"forward": s.forward, "backward": s.backward} {
				for _, r := range []int{1, 3, nb, nb + 5} {
					b := random(r, uint64(r))
					whole := b.Clone()
					must(solve(whole))
					for c := 0; c < r; c++ {
						one := column(b, c)
						bound := 1e-13 * one.FrobNorm()
						must(solve(one))
						for i := 0; i < n; i++ {
							if d := math.Abs(whole.At(i, c) - one.At(i, 0)); d > bound {
								t.Fatalf("%s r=%d: column %d row %d is %g off its one-column solve (bound %g)", dir, r, c, i, d, bound)
							}
						}
					}
				}
				// chunks of one and of two column blocks, then a ragged tail
				b := random(3*nb+5, 77)
				whole := b.Clone()
				must(solve(whole))
				for _, cut := range [][2]int{{0, nb}, {nb, 3 * nb}, {3 * nb, 3*nb + 5}} {
					chunk := b.View(0, cut[0], n, cut[1]-cut[0]).Clone()
					must(solve(chunk))
					for i := 0; i < n; i++ {
						for c := cut[0]; c < cut[1]; c++ {
							if chunk.At(i, c-cut[0]) != whole.At(i, c) {
								t.Fatalf("%s: chunk [%d,%d) differs from the whole solve at (%d,%d): %v != %v",
									dir, cut[0], cut[1], i, c, chunk.At(i, c-cut[0]), whole.At(i, c))
							}
						}
					}
				}
			}

			b := random(3, 78)
			want := b.Clone()
			la.Trsm(la.Left, la.Lower, la.NoTrans, 1, ref, want)
			la.Trsm(la.Left, la.Lower, la.Transpose, 1, ref, want)
			got := b.Clone()
			must(s.forward(got))
			must(s.backward(got))
			got.Sub(want)
			if d := got.MaxAbs(); d > s.tol {
				t.Fatalf("forward then backward is %g off A⁻¹b (tolerance %g)", d, s.tol)
			}

			if s.shimForward != nil {
				v := random(1, 79)
				blk := v.Clone()
				must(s.shimForward(v))
				must(s.forward(blk))
				for i := range v.Data {
					if v.Data[i] != blk.Data[i] {
						t.Fatalf("ForwardSolve shim differs from the one-column block solve at %d", i)
					}
				}
				must(s.shimBackward(v))
				must(s.backward(blk))
				for i := range v.Data {
					if v.Data[i] != blk.Data[i] {
						t.Fatalf("BackwardSolve shim differs from the one-column block solve at %d", i)
					}
				}
			}
		})
	}
}

// TestBlockSolveRefusesWrongHeight: a right-hand side with one row too few or
// too many is refused by the one row check (tile.ColumnBlocks) on every entry
// point, shims included, in both directions — where tile.ForwardSolve used
// to solve a prefix of a longer vector and fail inside la.Gemm, with a message
// about a tile, on a shorter one. On ranks the panic is the rank's error.
func TestBlockSolveRefusesWrongHeight(t *testing.T) {
	const n, nb = 150, 24
	solves, _ := blockSolves(t, n, nb)
	// the panic, or the error that carries it
	outcome := func(solve func() error) (msg string) {
		defer func() {
			if rec := recover(); rec != nil {
				msg = fmt.Sprint(rec)
			}
		}()
		if err := solve(); err != nil {
			return err.Error()
		}
		return ""
	}
	for _, s := range solves {
		if s.name == "full-block" {
			continue // one la.Trsm, which has its own shape check
		}
		entries := map[string]func(*la.Mat) error{"forward": s.forward, "backward": s.backward}
		if s.shimForward != nil {
			entries["forward shim"], entries["backward shim"] = s.shimForward, s.shimBackward
		}
		for name, solve := range entries {
			for _, rows := range []int{n - 1, n + 1} {
				want := fmt.Sprintf("rows %d for n=%d", rows, n)
				if msg := outcome(func() error { return solve(la.NewMat(rows, 1)) }); !strings.Contains(msg, want) {
					t.Errorf("%s %s with %d rows: %q, want a panic naming %q", s.name, name, rows, msg, want)
				}
			}
		}
	}
}
