// Covariance generation + compression as runtime tasks: the HiCMA analogue
// of the ExaGeoStat "dcmg" codelets. Each diagonal tile gets one generation
// task and each off-diagonal tile one fused generate+compress task, all
// writing the tile's data handle. Inserted ahead of the POTRF/TRSM/SYRK/GEMM
// sweep they form one DAG, so compression of tile (i, j) overlaps
// factorization of earlier panels exactly as HiCMA's StarPU tasks do.
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
	// Comp compresses the off-diagonal tiles. Stochastic backends
	// implementing TileCompressor are re-seeded per tile, making the result
	// bitwise-identical at any worker count.
	Comp Compressor

	// ForceMiss, when non-nil, forces tile (i, j) of the mt×mt tiling to
	// miss the compression tolerance and store densely (DE) — the chaos hook
	// exercising the fallback path. Must be a pure function of its arguments
	// so concurrent tasks reach identical verdicts.
	ForceMiss func(mt, i, j int) bool

	// scratch pools the NB×NB dense buffers the generate+compress tasks
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

// flopsCompress estimates the cost of compressing a di×dj tile — the
// dominant O(di·dj·min) orthogonalization shared by every backend — for task
// priorities and the simulated executors.
func flopsCompress(di, dj int) float64 {
	mn := di
	if dj < mn {
		mn = dj
	}
	return 2 * float64(di) * float64(dj) * float64(mn)
}

// DiagBlock fills d with the diagonal block of Σ(θ) over the d.Rows points
// starting at lo: SymBlock plus the nugget.
func (s *GenSpec) DiagBlock(d *la.Mat, lo int) {
	cntDcmgTLR.Inc()
	s.K.SymBlock(d, s.Pts[lo:lo+d.Rows], s.Metric)
	cov.AddNugget(d, s.Nugget)
}

// OffBlock generates the block of Σ(θ) between the row and column points and
// compresses it to tol. It is the one generator behind every deployment —
// shared-memory TLR, the rank shards and HODLR — so a tile is a function of
// (geometry, θ, (i, j)) alone: (i, j) seed a stochastic compressor's
// per-tile stream and, with mt, are what ForceMiss is asked about. A block
// of at most nb×nb is generated into pooled scratch. A tile whose rank
// exceeds maxRank > 0, or that ForceMiss picks, is stored densely (DE).
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
	t := forTile(s.Comp, i, j).Compress(dense, tol)
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

// AddGenTasks inserts the per-tile generation tasks of m, each writing its
// tile handle: plain dense generation for diagonal tiles, fused
// generate+compress for off-diagonal tiles. Tiles in low column blocks get
// higher priority (the factorization consumes left panels first). Tasks
// allocate diagonal tiles lazily and replace compressed tiles wholesale, so
// re-executing the graph on a reused shell rebuilds contents and ranks while
// keeping the shell and handle layout; each off-diagonal task refreshes its
// handle's byte count with the new rank's footprint.
func AddGenTasks(g *runtime.Graph, m *Matrix, spec *GenSpec, dh []*runtime.Handle, oh [][]*runtime.Handle, bind bool) {
	mt := m.MT
	for i := 0; i < mt; i++ {
		i := i
		var runD func()
		if bind {
			runD = func() { m.GenDiag(spec, i) }
		}
		g.AddTask(runtime.Task{
			Name:     "dcmg",
			Flops:    tile.FlopsDCMG(m.TileDim(i), m.TileDim(i)),
			Priority: 4 * (mt - i),
			Run:      runD,
			Accesses: []runtime.Access{{Handle: dh[i], Mode: runtime.Write}},
		})
		for j := 0; j < i; j++ {
			j := j
			var run func()
			if bind {
				run = func() { oh[i][j].SetBytes(m.GenOff(spec, i, j).Bytes()) }
			}
			g.AddTask(runtime.Task{
				Name:     "dcmg+comp",
				Flops:    tile.FlopsDCMG(m.TileDim(i), m.TileDim(j)) + flopsCompress(m.TileDim(i), m.TileDim(j)),
				Priority: 4 * (mt - j),
				Run:      run,
				Accesses: []runtime.Access{{Handle: oh[i][j], Mode: runtime.Write}},
			})
		}
	}
}

// BuildGenCholeskyGraph builds the combined generate+compress +
// factorization DAG: generation tasks write every tile, POTRF/TRSM/SYRK/GEMM
// tasks consume them. The graph is re-executable: running it again
// regenerates and recompresses the matrix from the (possibly updated) spec
// and refactors it, which is what core's likelihood evaluator does once per
// optimizer iteration.
func BuildGenCholeskyGraph(m *Matrix, spec *GenSpec, bind bool) *runtime.Graph {
	g := runtime.NewGraph()
	dh, oh := newTileHandles(g, m)
	AddGenTasks(g, m, spec, dh, oh, bind)
	addCholeskyTasks(g, m, dh, oh, bind)
	return g
}

// GenCholesky generates and compresses Σ(θ) into m and factors it in place
// in a single task-graph execution, overlapping compression with
// factorization. It returns la.ErrNotPositiveDefinite (wrapped) if a pivot
// fails.
func GenCholesky(m *Matrix, spec *GenSpec, workers int) error {
	g := BuildGenCholeskyGraph(m, spec, true)
	return g.Execute(runtime.ExecOptions{Workers: workers})
}
