package tlr_test

import (
	"fmt"
	"testing"

	"repro/internal/cov"
	"repro/internal/geom"
	"repro/internal/la"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/runtime"
	"repro/internal/tlr"
)

// Every tile a factorization hands to GemmLL as the update target has V with
// orthonormal columns and U with mutually orthogonal ones, to the slack the
// structured update checks for — so no update of the sweep is sent down the
// general stack-and-recompress path for a lost basis, only the ones whose
// target has no rank or no room (the two-row tiles of the ragged last tile
// row here). The sweep is run by hand, tile by tile, with the target of each
// update measured independently before the kernel sees it; the task graph in
// core, under a memory budget and over four ranks must then produce the same
// factor bit for bit and take the general path the same number of times, the
// basis check being a function of the tile's entries alone.
func TestUpdateTargetsKeepInvariant(t *testing.T) {
	const (
		n, nb  = 450, 64
		tol    = 1e-7
		nugget = 1e-6
		slack  = 1e-11
	)
	r := rng.New(7)
	pts := geom.GeneratePerturbedGrid(n, r)
	pts = geom.ApplyPerm(pts, geom.MortonOrder(pts))
	k := cov.NewKernel(cov.Params{Variance: 1, Range: 0.1, Smoothness: 0.5})
	general := obs.GetCounter("tlr.recompress.general")

	for _, name := range []string{"svd", "rsvd", "aca"} {
		comp, err := tlr.CompressorByName(name)
		if err != nil {
			t.Fatal(err)
		}
		spec := func() *tlr.GenSpec {
			return &tlr.GenSpec{K: k, Pts: pts, Metric: geom.Euclidean, Nugget: nugget, Comp: comp}
		}

		ref := tlr.NewMatrix(n, nb, tol)
		mt := ref.MT
		for i := 0; i < mt; i++ {
			ref.GenDiag(spec(), i)
			for j := 0; j < i; j++ {
				ref.GenOff(spec(), i, j)
			}
		}
		before := general.Value()
		var updates, wantGeneral int64
		for p := 0; p < mt; p++ {
			if err := la.Potrf(ref.Diag(p)); err != nil {
				t.Fatal(err)
			}
			for i := p + 1; i < mt; i++ {
				tlr.TrsmLD(ref.Diag(p), ref.Off(i, p))
			}
			for i := p + 1; i < mt; i++ {
				a := ref.Off(i, p)
				tlr.SyrkLD(ref.Diag(i), a)
				for j := p + 1; j < i; j++ {
					c, b := ref.Off(i, j), ref.Off(j, p)
					if c.IsDense() || a.IsDense() || b.IsDense() {
						t.Fatalf("%s: dense tile in the (%d,%d,%d) update", name, i, j, p)
					}
					if kx := min(a.Rank(), b.Rank()); kx > 0 {
						updates++
						if c.Rank() == 0 || c.Rank()+kx > min(c.Rows(), c.Cols()) {
							wantGeneral++
						}
					}
					if gu, gv := tlr.BasisGaps(c); gu > slack || gv > slack {
						t.Fatalf("%s: target (%d,%d) of panel %d has UᵀU off-diagonal %g, ‖VᵀV − I‖ %g", name, i, j, p, gu, gv)
					}
					ref.UpdateOff(i, j, a, b)
				}
			}
		}
		if got := general.Value() - before; got != wantGeneral {
			t.Fatalf("%s: %d of %d updates took the general path, %d have a target without rank or room", name, got, updates, wantGeneral)
		}
		if updates == 0 || wantGeneral == updates {
			t.Fatalf("%s: %d updates, %d general: the sweep does not exercise the structured path", name, updates, wantGeneral)
		}

		t.Logf("%s: %d updates, %d through the general path", name, updates, wantGeneral)

		sameAsRef := func(m *tlr.Matrix, owned func(i, j int) bool) error {
			for i := 0; i < mt; i++ {
				for j := 0; j <= i; j++ {
					if !owned(i, j) {
						continue
					}
					if i == j {
						for a := 0; a < m.TileDim(i); a++ {
							for b := 0; b <= a; b++ {
								if m.Diag(i).At(a, b) != ref.Diag(i).At(a, b) {
									return fmt.Errorf("diagonal tile %d differs from the hand-run sweep", i)
								}
							}
						}
						continue
					}
					got, want := m.Off(i, j).Encode(), ref.Off(i, j).Encode()
					if len(got) != len(want) {
						return fmt.Errorf("tile (%d,%d) has rank %d, hand-run sweep %d", i, j, m.Off(i, j).Rank(), ref.Off(i, j).Rank())
					}
					for w := range want {
						if got[w] != want[w] {
							return fmt.Errorf("tile (%d,%d) differs from the hand-run sweep", i, j)
						}
					}
				}
			}
			return nil
		}
		all := func(i, j int) bool { return true }
		sameCount := func(how string, before int64) {
			t.Helper()
			if got := general.Value() - before; got != wantGeneral {
				t.Fatalf("%s, %s: %d updates took the general path, hand-run sweep %d", name, how, got, wantGeneral)
			}
		}

		before = general.Value()
		core := tlr.NewMatrix(n, nb, tol)
		if err := tlr.GenCholesky(core, spec(), 4); err != nil {
			t.Fatal(err)
		}
		sameCount("in core", before)
		if err := sameAsRef(core, all); err != nil {
			t.Fatalf("%s, in core: %v", name, err)
		}

		before = general.Value()
		ooc := tlr.NewMatrix(n, nb, tol)
		g := tlr.BuildGenCholeskyGraph(ooc, spec(), true)
		cache, err := tlr.NewSpillCache(t.TempDir(), tlr.MinMemBudget(nb, 2))
		if err != nil {
			t.Fatal(err)
		}
		defer cache.Close()
		cache.Bind(ooc)
		if err := g.Execute(runtime.ExecOptions{Workers: 2}); err != nil {
			t.Fatal(err)
		}
		if err := cache.Err(); err != nil {
			t.Fatal(err)
		}
		sameCount("under MemBudget", before)
		if ld, want := ooc.LogDet(), core.LogDet(); ld != want {
			t.Fatalf("%s, under MemBudget: logdet %v, in core %v", name, ld, want)
		}

		before = general.Value()
		grid := mpi.Grid{P: 2, Q: 2}
		for rank, err := range mpi.RunWorld(4, func(c *mpi.Comm) error {
			d := mpi.NewDistTLR(grid, pts, geom.Euclidean, nb, tol, comp)
			if err := d.GenCholesky(c, k, nugget); err != nil {
				return err
			}
			return sameAsRef(d.Matrix, func(i, j int) bool { return grid.Owner(i, j) == c.Rank() })
		}) {
			if err != nil {
				t.Fatalf("%s, on 4 ranks: rank %d: %v", name, rank, err)
			}
		}
		sameCount("on 4 ranks", before)
	}
}

// With no ragged tile row — so no update target of rank 0 and none without
// room — a whole factorization never takes the general stack-and-recompress
// path at a loose or a tight accuracy: every target passes the Gram check,
// which holds the tile's bases to the orthogonality SVDThin gives its U and V.
func TestFactorizationTakesNoGeneralPath(t *testing.T) {
	const n, nb = 768, 128
	pts := geom.GeneratePerturbedGrid(n, rng.New(11))
	pts = geom.ApplyPerm(pts, geom.MortonOrder(pts))
	k := cov.NewKernel(cov.Params{Variance: 1, Range: 0.1, Smoothness: 0.5})
	general := obs.GetCounter("tlr.recompress.general")
	updates := obs.GetCounter("tlr.recompress.calls")
	for _, tol := range []float64{1e-5, 1e-7} {
		for _, name := range []string{"svd", "rsvd"} {
			comp, err := tlr.CompressorByName(name)
			if err != nil {
				t.Fatal(err)
			}
			m := tlr.FromKernel(k, pts, geom.Euclidean, n, nb, tol, comp, 1e-6, 2)
			g0, u0 := general.Value(), updates.Value()
			if err := tlr.Cholesky(m, 2); err != nil {
				t.Fatal(err)
			}
			if u := updates.Value() - u0; u == 0 {
				t.Fatalf("%s at %g: no low-rank update ran", name, tol)
			}
			if d := general.Value() - g0; d != 0 {
				t.Errorf("%s at %g: %d updates took the general path", name, tol, d)
			}
		}
	}
}
