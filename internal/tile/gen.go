// Covariance generation as runtime tasks: the ExaGeoStat "dcmg" codelets.
// Each stored tile gets one generation task that writes the tile's data
// handle, so factorization tasks depend on generation tile-by-tile and the
// scheduler overlaps matrix generation with the start of the Cholesky sweep
// exactly as the paper's StarPU version does.
package tile

import (
	"repro/internal/cov"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/runtime"
)

// cntDcmg counts executed covariance-generation tasks — compare against the
// tile count to see how much regeneration the optimizer's θ sweep performed.
var cntDcmg = obs.GetCounter("tile.dcmg.calls")

// GenSpec carries the inputs of covariance generation. The dcmg task
// closures read the fields when they RUN, not when the graph is built:
// callers that cache the task graph across optimizer iterations (core.Fit)
// swap in a new Kernel and Nugget between executions and re-run the same
// graph. Pts and Metric must stay fixed for the graph's lifetime.
type GenSpec struct {
	K      *cov.Kernel
	Pts    []geom.Point
	Metric geom.Metric
	Nugget float64
}

// dcmgFlopsPerElem approximates the arithmetic cost of one Matérn kernel
// evaluation (distance + exp/pow/Bessel) for the simulated executors and
// task priorities.
const dcmgFlopsPerElem = 40

// FlopsDCMG is the generation cost of a di×dj tile.
func FlopsDCMG(di, dj int) float64 { return dcmgFlopsPerElem * float64(di) * float64(dj) }

// dcmg generates tile (i, j) of Σ(θ) into m: SymBlock plus the nugget on the
// diagonal, Block below it. It is the body of every generation task and of
// the sequential FillKernel walk.
func (m *SymMatrix) dcmg(spec *GenSpec, i, j int) {
	cntDcmg.Inc()
	dst := m.Tile(i, j)
	ri := spec.Pts[i*m.NB : i*m.NB+m.TileDim(i)]
	if i != j {
		spec.K.Block(dst, ri, spec.Pts[j*m.NB:j*m.NB+m.TileDim(j)], spec.Metric)
		return
	}
	spec.K.SymBlock(dst, ri, spec.Metric)
	cov.AddNugget(dst, spec.Nugget)
}

// AddGenTasks inserts one dcmg task per stored tile of m, each writing its
// tile handle. Tiles in low column blocks get higher priority: the panel
// factorization consumes column k first, so generating left columns early
// shortens the critical path.
func AddGenTasks(g *runtime.Graph, m *SymMatrix, spec *GenSpec, hs [][]*runtime.Handle, bind bool) {
	mt := m.MT
	for i := 0; i < mt; i++ {
		for j := 0; j <= i; j++ {
			i, j := i, j
			var run func()
			if bind {
				run = func() { m.dcmg(spec, i, j) }
			}
			g.AddTask(runtime.Task{
				Name:     "dcmg",
				Flops:    FlopsDCMG(m.TileDim(i), m.TileDim(j)),
				Priority: 4 * (mt - j),
				Run:      run,
				Accesses: []runtime.Access{{Handle: hs[i][j], Mode: runtime.Write}},
			})
		}
	}
}

// BuildGenCholeskyGraph builds the combined generation + factorization DAG:
// dcmg tasks write every tile, POTRF/TRSM/SYRK/GEMM tasks consume them. The
// graph is re-executable: running it again regenerates the matrix from the
// (possibly updated) spec and refactors it, which is what core's likelihood
// evaluator does once per optimizer iteration.
func BuildGenCholeskyGraph(m *SymMatrix, spec *GenSpec, bind bool) (*runtime.Graph, [][]*runtime.Handle) {
	g := runtime.NewGraph()
	hs := newTileHandles(g, m)
	AddGenTasks(g, m, spec, hs, bind)
	addCholeskyTasks(g, m, hs, bind)
	return g, hs
}

// GenCholesky generates Σ(θ) into m and factors it in place in a single
// task-graph execution, overlapping generation with factorization. It
// returns la.ErrNotPositiveDefinite (wrapped) if a pivot fails.
func GenCholesky(m *SymMatrix, spec *GenSpec, workers int) error {
	g, _ := BuildGenCholeskyGraph(m, spec, true)
	return g.Execute(runtime.ExecOptions{Workers: workers})
}

// FillKernelParallel populates m from the kernel like FillKernel but runs
// the per-tile dcmg tasks on the runtime's worker pool.
func FillKernelParallel(m *SymMatrix, k *cov.Kernel, pts []geom.Point, metric geom.Metric, nugget float64, workers int) {
	if len(pts) != m.N {
		panic("tile: FillKernelParallel point count mismatch")
	}
	if workers < 2 {
		m.FillKernel(k, pts, metric, nugget)
		return
	}
	spec := &GenSpec{K: k, Pts: pts, Metric: metric, Nugget: nugget}
	g := runtime.NewGraph()
	hs := newTileHandles(g, m)
	AddGenTasks(g, m, spec, hs, true)
	if err := g.Execute(runtime.ExecOptions{Workers: workers}); err != nil {
		// generation tasks cannot fail numerically; a panic here is a
		// programming error
		panic(err)
	}
}
