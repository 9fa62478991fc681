package tlr

import (
	"testing"

	"repro/internal/cov"
	"repro/internal/geom"
	"repro/internal/la"
	"repro/internal/rng"
	"repro/internal/runtime"
)

// exactEqual reports bitwise equality of two dense matrices.
func exactEqual(a, b *la.Mat) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := 0; i < a.Rows; i++ {
		ar, br := a.Row(i), b.Row(i)
		for j := range ar {
			if ar[j] != br[j] {
				return false
			}
		}
	}
	return true
}

func genTestSetup(t *testing.T, n int) (*cov.Kernel, []geom.Point) {
	t.Helper()
	r := rng.New(7)
	pts := geom.GeneratePerturbedGrid(n, r)
	pts = geom.ApplyPerm(pts, geom.MortonOrder(pts))
	k := cov.NewKernel(cov.Params{Variance: 1, Range: 0.1, Smoothness: 0.5})
	return k, pts
}

// The determinism contract of the parallel assemble+compress pipeline: the
// assembled TLR matrix is bitwise-identical at any worker count, for every
// compression backend (each tile is compressed with its own tileSeed).
func TestFromKernelWorkerInvariance(t *testing.T) {
	const n, nb = 240, 32
	k, pts := genTestSetup(t, n)
	for name, comp := range map[string]Compressor{"svd": CompressSVD, "rsvd": CompressRSVD} {
		m1 := FromKernel(k, pts, geom.Euclidean, n, nb, 1e-7, comp, 1e-9, 1)
		m4 := FromKernel(k, pts, geom.Euclidean, n, nb, 1e-7, comp, 1e-9, 4)
		for i := 0; i < m1.MT; i++ {
			if !exactEqual(m1.Diag(i), m4.Diag(i)) {
				t.Fatalf("%s: diagonal tile %d differs across worker counts", name, i)
			}
			for j := 0; j < i; j++ {
				a, b := m1.Off(i, j), m4.Off(i, j)
				if a.Rank() != b.Rank() {
					t.Fatalf("%s: tile (%d,%d) rank %d vs %d across worker counts", name, i, j, a.Rank(), b.Rank())
				}
				if !exactEqual(a.U, b.U) || !exactEqual(a.V, b.V) {
					t.Fatalf("%s: tile (%d,%d) factors differ across worker counts", name, i, j)
				}
			}
		}
	}
}

// Cholesky of an assembled matrix runs the sweep GenCholesky runs, with the
// stored tiles as its source instead of the generator. Assembled with every
// off-diagonal tile stored exactly (DE), the source holds what the generator
// produces, so the two pipelines must agree bitwise.
func TestGenCholeskyMatchesSeparatePipeline(t *testing.T) {
	const n, nb = 160, 32
	k, pts := genTestSetup(t, n)
	spec := &GenSpec{K: k, Pts: pts, Metric: geom.Euclidean, Nugget: 1e-9, Comp: CompressSVD}
	sep := NewMatrix(n, nb, 1e-8)
	sep.comp = CompressSVD
	for i := 0; i < sep.MT; i++ {
		sep.GenDiag(spec, i)
		for j := 0; j < i; j++ {
			d := la.NewMat(sep.TileDim(i), sep.TileDim(j))
			k.Block(d, sep.tilePts(spec, i), sep.tilePts(spec, j), geom.Euclidean)
			sep.off[i][j] = NewDenseTile(d)
		}
	}
	if err := Cholesky(sep, 4); err != nil {
		t.Fatal(err)
	}
	fused := NewMatrix(n, nb, 1e-8)
	if err := GenCholesky(fused, spec, 4); err != nil {
		t.Fatal(err)
	}
	if !exactEqual(sep.ToDense(), fused.ToDense()) {
		t.Fatal("fused generate+compress+factorize differs from separate pipeline")
	}
	if sep.LogDet() != fused.LogDet() {
		t.Fatalf("logdet differs: %g vs %g", sep.LogDet(), fused.LogDet())
	}
}

// The fused graph is re-executable on a reused shell: swapping the kernel in
// the spec and re-running regenerates ranks/contents and refactors, matching
// a fresh factorization bitwise — including returning to a θ seen before.
func TestGenCholeskyGraphReuseAcrossKernels(t *testing.T) {
	const n, nb = 160, 32
	_, pts := genTestSetup(t, n)
	thetas := []cov.Params{
		{Variance: 1, Range: 0.1, Smoothness: 0.5},
		{Variance: 2, Range: 0.05, Smoothness: 1.5},
		{Variance: 1, Range: 0.1, Smoothness: 0.5}, // revisit the first θ
	}
	shell := NewMatrix(n, nb, 1e-8)
	spec := &GenSpec{Pts: pts, Metric: geom.Euclidean, Nugget: 1e-9, Comp: CompressSVD}
	g := BuildGenCholeskyGraph(shell, spec, true)
	for _, th := range thetas {
		spec.K = cov.NewKernel(th)
		if err := g.Execute(runtime.ExecOptions{Workers: 3}); err != nil {
			t.Fatalf("θ=%v: %v", th, err)
		}
		fresh := NewMatrix(n, nb, 1e-8)
		fspec := &GenSpec{K: spec.K, Pts: pts, Metric: geom.Euclidean, Nugget: 1e-9, Comp: CompressSVD}
		if err := GenCholesky(fresh, fspec, 3); err != nil {
			t.Fatal(err)
		}
		if !exactEqual(shell.ToDense(), fresh.ToDense()) {
			t.Fatalf("θ=%v: reused graph result differs from fresh factorization", th)
		}
	}
}

// Every entry point compresses a block with the tile's seed alone: a tile
// from OffBlock at (i, j), the same tile assembled by FromKernel, and a HODLR
// block — OffBlock keyed by its (lo, hi) range, as hodlr's genOff calls it —
// each equal CompressRSVD(block, tol, tileSeed(·), 0) bit for bit, whatever was
// compressed before. Distinct tiles draw distinct streams.
func TestRSVDTileSeedDeterminism(t *testing.T) {
	const n, nb, tol = 240, 32, 1e-7
	k, pts := genTestSetup(t, n)
	spec := &GenSpec{K: k, Pts: pts, Metric: geom.Euclidean, Comp: CompressRSVD}
	block := func(r0, r1, c0, c1 int) *la.Mat {
		d := la.NewMat(r1-r0, c1-c0)
		k.Block(d, pts[r0:r1], pts[c0:c1], geom.Euclidean)
		return d
	}
	same := func(what string, got, want *CompTile) {
		t.Helper()
		if got.IsDense() || got.Rank() != want.Rank() || !exactEqual(got.U, want.U) || !exactEqual(got.V, want.V) {
			t.Fatalf("%s differs from CompressRSVD under its tile seed", what)
		}
	}

	const i, j = 5, 2
	a := block(i*nb, (i+1)*nb, j*nb, (j+1)*nb)
	want := CompressRSVD(a, tol, tileSeed(i, j), 0)
	CompressRSVD(block(nb, 2*nb, 0, nb), tol, tileSeed(1, 0), 0) // unrelated tile in between
	same("a second compression", CompressRSVD(a, tol, tileSeed(i, j), 0), want)
	same("OffBlock", spec.OffBlock(pts[i*nb:(i+1)*nb], pts[j*nb:(j+1)*nb], nb, (n+nb-1)/nb, i, j, tol, 0), want)
	same("FromKernel", FromKernel(k, pts, geom.Euclidean, n, nb, tol, CompressRSVD, 1e-9, 2).Off(i, j), want)

	// HODLR node [lo, hi) with mid = (lo+hi)/2 stores rows [mid, hi) against
	// columns [lo, mid), a block wider than the leaf.
	const lo, mid, hi = 120, 180, 240
	same("HODLR block", spec.OffBlock(pts[mid:hi], pts[lo:mid], nb, 0, lo, hi, tol, 0),
		CompressRSVD(block(mid, hi, lo, mid), tol, tileSeed(lo, hi), 0))

	if d := CompressRSVD(a, tol, tileSeed(j, i), 0); exactEqual(want.U, d.U) {
		t.Fatal("distinct tiles unexpectedly share a random stream")
	}
}

// A zero tile has rank 0 and zero storage however it arises — from any of
// the two compressors, or from an update that cancels the tile exactly —
// and every TLR kernel treats the rank-0 tile as a structural no-op.
func TestZeroTileRankZero(t *testing.T) {
	producers := []struct {
		name string
		zero func(rows, cols int) *CompTile
	}{
		{"svd", func(r, c int) *CompTile { return CompressSVD(la.NewMat(r, c), 1e-8, 0, 0) }},
		{"rsvd", func(r, c int) *CompTile { return CompressRSVD(la.NewMat(r, c), 1e-8, 0, 0) }},
		{"C − C", func(r, c int) *CompTile {
			full := CompressSVD(covTile(t, r, c, 0.6), 1e-8, 0, 0)
			return AddLowRank(full, -1, full.U, full.V, 1e-8, 0)
		}},
	}
	for _, p := range producers {
		t.Run(p.name, func(t *testing.T) { checkZeroTile(t, p.zero(16, 12), p.zero(12, 12)) })
	}
}

// checkZeroTile asserts that c (16×12) and sq (12×12) are rank-0 tiles and
// that the factorization and solve kernels accept them.
func checkZeroTile(t *testing.T, c, sq *CompTile) {
	if c.Rank() != 0 {
		t.Fatalf("zero tile rank %d, want 0", c.Rank())
	}
	if c.Bytes() != 0 {
		t.Fatalf("zero tile claims %d bytes", c.Bytes())
	}
	if c.Rows() != 16 || c.Cols() != 12 || c.Dense().FrobNorm() != 0 {
		t.Fatal("rank-0 tile does not reconstruct to the 16×12 zero")
	}

	if sq.Rank() != 0 {
		t.Fatalf("square zero tile rank %d, want 0", sq.Rank())
	}
	diag := covTile(t, 12, 12, 0.1)
	want := diag.Clone()
	SyrkLD(diag, sq) // C -= 0·0ᵀ
	if !exactEqual(diag, want) {
		t.Fatal("SyrkLD with rank-0 tile modified C")
	}
	l := la.Eye(12)
	TrsmLD(l, sq)
	if sq.Rank() != 0 {
		t.Fatal("TrsmLD changed a rank-0 tile")
	}
	full := CompressSVD(covTile(t, 12, 12, 0.6), 1e-8, 0, 0)
	if got := GemmLL(full, sq, full, 1e-8, 0); got != full {
		t.Fatal("GemmLL with a rank-0 operand must return C unchanged")
	}
	if got := GemmLL(sq, full, full, 1e-8, 0); got.Rank() == 0 && full.Rank() > 0 {
		t.Fatal("GemmLL failed to update a rank-0 C from nonzero operands")
	}
	x := make([]float64, 12)
	y := make([]float64, 12)
	for i := range x {
		x[i] = float64(i + 1)
	}
	MatMul(sq, la.NoTrans, 1, la.NewMatFrom(12, 1, x), la.NewMatFrom(12, 1, y))
	MatMul(sq, la.Transpose, 1, la.NewMatFrom(12, 1, x), la.NewMatFrom(12, 1, y))
	for i, v := range y {
		if v != 0 {
			t.Fatalf("rank-0 one-column MatMul wrote y[%d]=%g", i, v)
		}
	}
	b := la.NewMat(12, 3)
	cM := la.NewMat(12, 3)
	MatMul(sq, la.NoTrans, 1, b, cM)
	if cM.FrobNorm() != 0 {
		t.Fatal("rank-0 MatMul wrote into C")
	}
}

// Structural graphs on an empty shell must never carry zero-flop tasks: the
// nominal rank is clamped to ≥ 1 even for NB < 8 (the cluster ablation's
// simulated makespans depend on it).
func TestStructuralGraphNoZeroFlopTasks(t *testing.T) {
	for _, nb := range []int{4, 7, 16} {
		m := NewMatrix(32, nb, 1e-6)
		g := BuildCholeskyGraph(m, false)
		for _, task := range g.Tasks() {
			if task.Flops <= 0 {
				t.Fatalf("nb=%d: task %q has %g flops", nb, task.Name, task.Flops)
			}
		}
	}
}
