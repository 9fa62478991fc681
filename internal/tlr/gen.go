// Covariance generation, compression and the TLR Cholesky as one task graph:
// the ExaGeoStat "dcmg" codelets fused with a left-looking sweep that
// compresses each tile once. A diagonal tile is generated by its own task; an
// off-diagonal tile is generated into pooled scratch by the task that
// factors it, which subtracts its Schur update exactly, compresses the
// result and solves it against the diagonal factor. Compression of tile
// (i, j) thereby overlaps the factorization of other tiles, as HiCMA's StarPU
// tasks do, and no compressed tile is ever updated.
package tlr

import (
	"sync"

	"repro/internal/cov"
	"repro/internal/geom"
	"repro/internal/la"
	"repro/internal/obs"
	"repro/internal/runtime"
	"repro/internal/tile"
)

// Compression metrics: histCompRank is the distribution of accepted tile
// ranks — the quantity the paper's accuracy/memory trade-off figures plot.
// Read it as obs.Default().Snapshot().Histograms["tlr.compress.rank"]; its
// Max is the largest rank any tile needed at the session's tolerance.
var (
	cntDcmgTLR   = obs.GetCounter("tlr.dcmg.calls")
	cntCompress  = obs.GetCounter("tlr.compress.calls")
	histCompRank = obs.GetHistogram("tlr.compress.rank")
)

// GenSpec carries the inputs of TLR covariance generation. The task closures
// read the fields when they RUN, not when the graph is built: callers that
// cache the fused task graph across optimizer iterations (core's evaluator)
// swap in a new Kernel and Nugget between executions and re-run the same
// graph — only ranks and tile contents are rebuilt per θ. Pts, Metric and
// Comp must stay fixed for the graph's lifetime.
type GenSpec struct {
	K      *cov.Kernel
	Pts    []geom.Point
	Metric geom.Metric
	Nugget float64
	// Comp compresses the off-diagonal tiles, each with its own tileSeed,
	// so the result is bitwise-identical at any worker count.
	Comp Compressor

	// ForceMiss, when non-nil, forces tile (i, j) of the mt×mt tiling to
	// miss the compression tolerance and store densely (DE) — the chaos hook
	// exercising the fallback path. Must be a pure function of its arguments
	// so concurrent tasks reach identical verdicts.
	ForceMiss func(mt, i, j int) bool

	// scratch pools the NB×NB dense buffers the off-diagonal tasks
	// materialize tiles into before compression, so repeated graph
	// executions allocate no per-tile scratch.
	scratch sync.Pool
}

// getScratch returns a pooled nb×nb dense buffer.
func (s *GenSpec) getScratch(nb int) *la.Mat {
	if v := s.scratch.Get(); v != nil {
		return v.(*la.Mat)
	}
	return la.NewMat(nb, nb)
}

// FlopsCompress estimates the cost of compressing a di×dj tile — the
// dominant O(di·dj·min) orthogonalization shared by every backend — for task
// priorities and the simulated executors.
func FlopsCompress(di, dj int) float64 {
	return 2 * float64(di) * float64(dj) * float64(min(di, dj))
}

// DiagBlock fills d with the diagonal block of Σ(θ) over the d.Rows points
// starting at lo: SymBlock plus the nugget.
func (s *GenSpec) DiagBlock(d *la.Mat, lo int) {
	cntDcmgTLR.Inc()
	s.K.SymBlock(d, s.Pts[lo:lo+d.Rows], s.Metric)
	cov.AddNugget(d, s.Nugget)
}

// OffBlock generates the block of Σ(θ) between the row and column points and
// compresses it to tol. It is the generator behind assembly — FromKernel
// and HODLR — so a tile is a function of (geometry, θ, (i, j)) alone: (i, j)
// give the compressor its tileSeed and, with mt, are what ForceMiss is asked
// about. A block of at most nb×nb is generated into pooled scratch. A tile
// whose rank exceeds maxRank > 0, or that ForceMiss picks, is stored densely
// (DE).
func (s *GenSpec) OffBlock(rows, cols []geom.Point, nb, mt, i, j int, tol float64, maxRank int) *CompTile {
	var buf *la.Mat
	if len(rows) <= nb && len(cols) <= nb {
		buf = s.getScratch(nb)
		defer s.scratch.Put(buf)
	} else {
		buf = la.NewMat(len(rows), len(cols))
	}
	dense := buf.View(0, 0, len(rows), len(cols))
	s.K.Block(dense, rows, cols, s.Metric)
	return s.compress(dense, mt, i, j, tol, maxRank, 0)
}

// compress compresses the dense block of tile (i, j) of an mt×mt tiling —
// generated, or with its Schur update subtracted — under the tile's seed and
// the rank hint, falling back to an exact dense (DE) copy of the block when
// the rank exceeds maxRank > 0 or ForceMiss picks the tile.
func (s *GenSpec) compress(dense *la.Mat, mt, i, j int, tol float64, maxRank, hint int) *CompTile {
	t := s.Comp(dense, tol, tileSeed(i, j), hint)
	cntCompress.Inc()
	histCompRank.Observe(int64(t.Rank()))
	if (maxRank > 0 && t.Rank() > maxRank) || (s.ForceMiss != nil && s.ForceMiss(mt, i, j)) {
		// dense may be a view into a pooled buffer — copy it out
		t = NewDenseTile(dense.Clone())
		cntDenseTile.Inc()
	}
	return t
}

// tilePts returns the points of tile row (or column) i.
func (m *Matrix) tilePts(spec *GenSpec, i int) []geom.Point {
	return spec.Pts[i*m.NB : i*m.NB+m.TileDim(i)]
}

// GenDiag (re)generates dense diagonal tile i in place, allocating it on
// first use.
func (m *Matrix) GenDiag(spec *GenSpec, i int) {
	m.pin(i, i, pinOverwrite)
	defer m.unpin(i, i)
	if m.diag[i] == nil {
		m.diag[i] = la.NewMat(m.TileDim(i), m.TileDim(i))
	}
	spec.DiagBlock(m.diag[i], i*m.NB)
}

// GenOff (re)generates compressed tile (i, j), j < i, replacing the tile
// object wholesale, and returns it.
func (m *Matrix) GenOff(spec *GenSpec, i, j int) *CompTile {
	m.pin(i, j, pinOverwrite)
	defer m.unpin(i, j)
	t := spec.OffBlock(m.tilePts(spec, i), m.tilePts(spec, j), m.NB, m.MT, i, j, m.Tol, m.MaxRank)
	m.off[i][j] = t
	return t
}

// factorDiag is the body of potrf(j): L_jj = chol(A_jj − Σ_{k<j} L_jk·L_jkᵀ),
// in place of the diagonal tile, with the panel tiles pinned one at a time.
func (m *Matrix) factorDiag(j int) {
	m.pin(j, j, pinUpdate)
	defer m.unpin(j, j)
	for k := 0; k < j; k++ {
		m.with(func() { SyrkLD(m.diag[j], m.off[j][k]) }, tileUse{j, k, pinRead})
	}
	if err := la.Potrf(m.diag[j]); err != nil {
		panic(err)
	}
}

// factorOff is the body of trsm(i, j), j < i:
// L_ij = compress(A_ij − Σ_{k<j} L_ik·L_jkᵀ)·L_jj⁻ᵀ. A_ij is generated from
// spec into pooled scratch when gen is set, and is the tile m stores
// otherwise; the update is subtracted from it exactly, so the tile is
// compressed once, by spec's compressor, with the rank of L_{i,j−1} as its
// hint. The new tile replaces the old one wholesale and is returned. At most
// three tiles are pinned at a time: (i, k) and (j, k) for each k, then
// (j, j) and (i, j).
func (m *Matrix) factorOff(spec *GenSpec, gen bool, i, j int) *CompTile {
	buf := spec.getScratch(m.NB)
	defer spec.scratch.Put(buf)
	a := buf.View(0, 0, m.TileDim(i), m.TileDim(j))
	if gen {
		spec.K.Block(a, m.tilePts(spec, i), m.tilePts(spec, j), spec.Metric)
	} else {
		m.with(func() { m.off[i][j].denseInto(a) }, tileUse{i, j, pinRead})
	}
	hint := m.subtractSchur(a, i, j)
	t := spec.compress(a, m.MT, i, j, m.Tol, m.MaxRank, hint)
	m.with(func() {
		TrsmLD(m.diag[j], t)
		m.off[i][j] = t
	}, tileUse{j, j, pinRead}, tileUse{i, j, pinOverwrite})
	return t
}

// subtractSchur subtracts Σ_{k<j} L_ik·L_jkᵀ from the dense block a of tile
// (i, j). Each term is written as a product X_k·Y_kᵀ of its narrowest inner
// width (schurTerm), and the terms are laid side by side into one la.Gemm
// of inner width up to NB, so a tile's whole update is a few products of
// dense-tile shape instead of j thin ones. The two operands of a term are
// pinned for as long as it takes to copy them out.
//
// It returns the rank of L_{i,j−1}, the tile's left neighbour and the
// compressor's hint: 0 for j = 0 and for a dense (DE) neighbour, whose
// stored rank says nothing of the tile's.
func (m *Matrix) subtractSchur(a *la.Mat, i, j int) (hint int) {
	w := getWork()
	defer putWork(w)
	x, y := w.Mat(a.Rows, m.NB), w.Mat(a.Cols, m.NB)
	width := 0
	flush := func() {
		if width > 0 {
			la.Gemm(-1, x.View(0, 0, a.Rows, width), la.NoTrans, y.View(0, 0, a.Cols, width), la.Transpose, 1, a)
			width = 0
		}
	}
	for k := 0; k < j; k++ {
		m.with(func() {
			li, lj := m.off[i][k], m.off[j][k]
			kw := termWidth(li, lj)
			if width+kw > m.NB {
				flush()
			}
			schurTerm(w, li, lj, x.View(0, width, a.Rows, kw), y.View(0, width, a.Cols, kw))
			width += kw
			if k == j-1 && !li.IsDense() {
				hint = li.Rank()
			}
		}, tileUse{i, k, pinRead}, tileUse{j, k, pinRead})
	}
	flush()
	return hint
}

// buildSweep builds the left-looking TLR Cholesky of m as one task graph.
// Column by column it inserts, for each j:
//
//   - dcmg(j), when gen is set: generate diagonal tile j from spec;
//   - potrf(j): subtract Σ_{k<j} L_jk·L_jkᵀ with SyrkLD and factor the tile;
//   - trsm(i, j) for each i > j: factorOff — generate (or read) A_ij,
//     subtract its update exactly, compress once, solve against L_jj.
//
// Each task is named after the kernel that finishes its tile, so the tile a
// potrf or trsm task writes is final when it ends: it is read, never
// updated, by the tasks after it, and a rank that owns it sends it once.
// Earlier columns come first in priority, and within a column the diagonal
// and then the rows nearest it, which feed the next column's potrf.
//
// Task closures read spec and m's tiles when they run, so the graph
// re-executes after the kernel or nugget in spec changes, or on a matrix
// whose stored tiles were replaced (gen unset). A structural graph (bind
// unset) carries the flop counts, at the ranks m holds or a nominal NB/8.
func buildSweep(m *Matrix, spec *GenSpec, gen, bind bool) *runtime.Graph {
	g := runtime.NewGraph()
	dh, oh := newTileHandles(g, m)
	mt := m.MT
	rank := func(i, j int) int {
		if m.off[i][j] != nil {
			return m.off[i][j].Rank()
		}
		// structural graphs assume a nominal rank for costing; clamp to ≥ 1
		// so no task degenerates to zero flops (NB < 8 would otherwise yield
		// zero-cost tasks and corrupt simulated makespans)
		return max(m.NB/8, 1)
	}
	body := func(run func()) func() {
		if !bind {
			return nil
		}
		return run
	}
	prio := func(j, step int) int { return (mt-j)*(mt+2) - step }
	// Without a generator the sweep reads the stored tile it replaces.
	source := runtime.ReadWrite
	if gen {
		source = runtime.Write
	}
	for j := 0; j < mt; j++ {
		dj := m.TileDim(j)
		if gen {
			g.AddTask(runtime.Task{
				Name:     "dcmg",
				Flops:    tile.FlopsDCMG(dj, dj),
				Priority: prio(j, 0),
				Run:      body(func() { m.GenDiag(spec, j) }),
				Accesses: []runtime.Access{{Handle: dh[j], Mode: runtime.Write}},
			})
		}
		flops := tile.FlopsPOTRF(dj)
		acc := []runtime.Access{{Handle: dh[j], Mode: runtime.ReadWrite}}
		for k := 0; k < j; k++ {
			flops += FlopsSYRKComp(dj, rank(j, k))
			acc = append(acc, runtime.Access{Handle: oh[j][k], Mode: runtime.Read})
		}
		g.AddTask(runtime.Task{
			Name:     "potrf",
			Flops:    flops,
			Priority: prio(j, 1),
			Run:      body(func() { m.factorDiag(j) }),
			Accesses: acc,
		})
		for i := j + 1; i < mt; i++ {
			di := m.TileDim(i)
			flops := FlopsCompress(di, dj) + FlopsTRSMComp(dj, rank(i, j))
			if gen {
				flops += tile.FlopsDCMG(di, dj)
			}
			acc := []runtime.Access{{Handle: dh[j], Mode: runtime.Read}}
			for k := 0; k < j; k++ {
				flops += tile.FlopsGEMM(di, min(rank(i, k), rank(j, k)), dj)
				acc = append(acc,
					runtime.Access{Handle: oh[i][k], Mode: runtime.Read},
					runtime.Access{Handle: oh[j][k], Mode: runtime.Read})
			}
			g.AddTask(runtime.Task{
				Name:     "trsm",
				Flops:    flops,
				Priority: prio(j, 1+i-j),
				Run:      body(func() { oh[i][j].SetBytes(m.factorOff(spec, gen, i, j).Bytes()) }),
				Accesses: append(acc, runtime.Access{Handle: oh[i][j], Mode: source}),
			})
		}
	}
	return g
}

// BuildGenCholeskyGraph builds the fused generate+compress+factor DAG of
// buildSweep. The graph is re-executable: running it again regenerates and
// recompresses the matrix from the (possibly updated) spec and refactors it,
// which is what core's likelihood evaluator does once per optimizer
// iteration.
func BuildGenCholeskyGraph(m *Matrix, spec *GenSpec, bind bool) *runtime.Graph {
	return buildSweep(m, spec, true, bind)
}

// GenCholesky generates and compresses Σ(θ) into m and factors it in place
// in a single task-graph execution, overlapping compression with
// factorization. It returns la.ErrNotPositiveDefinite (wrapped) if a pivot
// fails.
func GenCholesky(m *Matrix, spec *GenSpec, workers int) error {
	g := BuildGenCholeskyGraph(m, spec, true)
	return g.Execute(runtime.ExecOptions{Workers: workers})
}
