package mpi

import (
	"fmt"

	"repro/internal/cov"
	"repro/internal/geom"
	"repro/internal/la"
	"repro/internal/runtime"
	"repro/internal/tile"
	"repro/internal/tlr"
)

// Grid is a 2D process grid mapping tiles to ranks block-cyclically, the
// distribution the paper's distributed runs use.
type Grid struct {
	P, Q int
}

// SquarestGrid returns the most square P×Q grid with P·Q = n, P ≤ Q.
func SquarestGrid(n int) Grid {
	p := 1
	for f := 1; f*f <= n; f++ {
		if n%f == 0 {
			p = f
		}
	}
	return Grid{P: p, Q: n / p}
}

// Owner returns the rank owning tile (i, j).
func (g Grid) Owner(i, j int) int { return (i%g.P)*g.Q + j%g.Q }

// DistTLR is one rank's shard of a 2D block-cyclically distributed TLR
// matrix: a tlr.Matrix in which only the tiles this rank owns are populated,
// the tlr.GenSpec they are generated from, and the grid. Messages carry
// tlr.Matrix.EncodeTile's words, so a rank-r tile costs (di+dk)·r doubles on
// the wire instead of the di·dk a dense tile would — the communication saving
// the paper's distributed TLR runs exploit.
//
// The shard is a reusable shell: GenCholesky rebuilds the owned tiles for a
// new θ in place and factors them, so core's distributed likelihood evaluator
// regenerates and refactors once per optimizer iteration without
// reallocating the shard. MaxRank (on the Matrix) and ForceMiss (on the
// GenSpec) act as they do in shared memory.
type DistTLR struct {
	*tlr.Matrix
	*tlr.GenSpec

	// Inject, when non-nil, runs before every task this rank owns, once its
	// inputs are in, with the graph's length and the task's ID —
	// runtime.ExecOptions.Inject's shape — and once more with taskID =
	// graphLen before each LogDet and solve, the step after the
	// factorization. It runs outside the task's recover, so a panic in it is
	// the death of this rank.
	Inject func(graphLen, taskID int)

	grid Grid

	// graph is tlr's generate+factor DAG over the shard, built once; place
	// is where its tasks run and what crosses ranks on the grid, and sends
	// lists, per task, the transfers of its output.
	graph *runtime.Graph
	place runtime.Placement
	sends [][]int
}

// NewDistTLR allocates an empty shard of an n×n TLR matrix distributed over
// grid; GenCholesky fills and factors the tiles of the rank that runs it.
// Which rank runs each task and which ranks each task's output goes to is
// inferred here, once, from the graph's data access on the grid. Every tile
// is written by the one task that generates or factors it before anything
// reads it, so every transfer has a producing task.
func NewDistTLR(grid Grid, pts []geom.Point, metric geom.Metric, nb int, tol float64, comp tlr.Compressor) *DistTLR {
	d := &DistTLR{
		Matrix:  tlr.NewMatrix(len(pts), nb, tol),
		GenSpec: &tlr.GenSpec{Pts: pts, Metric: metric, Comp: comp},
		grid:    grid,
	}
	d.graph = tlr.BuildGenCholeskyGraph(d.Matrix, d.GenSpec, true)
	d.place = d.graph.Place(func(h *runtime.Handle) int { return d.Owner(d.TileOf(h)) })
	d.sends = make([][]int, d.graph.Len())
	for x, tr := range d.place.Transfers {
		d.sends[tr.From] = append(d.sends[tr.From], x)
	}
	return d
}

// Owner returns the rank owning tile (i, j).
func (d *DistTLR) Owner(i, j int) int { return d.grid.Owner(i, j) }

// GenCholesky generates Σ(θ) for kernel k and nugget into the shard and
// factors it in place, cooperating with the other ranks of c. It runs the
// DAG shared memory runs — tlr.BuildGenCholeskyGraph — owner-computes: the
// rank walks the tasks in ID order and runs those whose output it owns,
// generation included, receiving a tile the first time one of its tasks
// reads it from another rank and sending each output to exactly the ranks
// runtime.Graph.Place lists. Sends never block, and a rank waits only on a
// task of lower ID, so the walk cannot deadlock; every message is consumed,
// so the World's mailboxes drain and it can be reused for the next θ. Each
// tile is computed by one task from the shared generator and from tiles the
// DAG finished before it, so the factor is bitwise shared memory's on every
// grid. Received tiles are
// dropped on return: the shard holds only what it owns.
//
// A non-SPD pivot fails the rank that owns it, with an error wrapping
// la.ErrNotPositiveDefinite; the World's poison fails every rank still
// waiting on it, and a rank whose owned work was already done returns nil.
// A failed run leaves the shard half factored and nothing here resumes it:
// the caller runs GenCholesky again, which regenerates every owned tile — or,
// after a rank death, runs it on fresh shards of a smaller World.
func (d *DistTLR) GenCholesky(c *Comm, k *cov.Kernel, nugget float64) error {
	d.K, d.Nugget = k, nugget
	me := c.Rank()
	received := make([]bool, len(d.place.Transfers))
	defer func() {
		for x, got := range received {
			if got {
				d.ClearTile(d.TileOf(d.place.Transfers[x].Handle))
			}
		}
	}()
	for _, t := range d.graph.Tasks() {
		if d.place.Node[t.ID] != me {
			continue
		}
		for _, x := range d.place.Inputs[t.ID] {
			if received[x] {
				continue
			}
			i, j := d.TileOf(d.place.Transfers[x].Handle)
			words, err := c.Recv(d.Owner(i, j), tagOf(kindTile, i, j))
			if err != nil {
				return err
			}
			if err := d.DecodeTile(i, j, words); err != nil {
				return fmt.Errorf("mpi: tile (%d,%d) from rank %d: %w", i, j, d.Owner(i, j), err)
			}
			received[x] = true
		}
		d.inject(t.ID)
		if err := runBody(t); err != nil {
			return err
		}
		var encoded *runtime.Handle // a tile is encoded once for all its recipients
		var words []float64
		for _, x := range d.sends[t.ID] {
			tr := d.place.Transfers[x]
			i, j := d.TileOf(tr.Handle)
			if tr.Handle != encoded {
				encoded, words = tr.Handle, d.EncodeTile(i, j)
			}
			c.Send(tr.To, tagOf(kindTile, i, j), words)
		}
	}
	return nil
}

// inject calls the Inject hook, if any, for task taskID (graph.Len() for the
// step after the factorization).
func (d *DistTLR) inject(taskID int) {
	if d.Inject != nil {
		d.Inject(d.graph.Len(), taskID)
	}
}

// runBody runs one task, turning a panic of its body — la.Potrf's breakdown —
// into this rank's error, as the shared executor does.
func runBody(t *runtime.Task) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &runtime.TaskPanic{Name: t.Name, ID: t.ID, Value: r}
		}
	}()
	t.Run()
	return nil
}

// LogDet computes log|A| after Cholesky (the paper's first likelihood term).
// The reduction is a per-tile vector allreduce — each slot has exactly one
// nonzero contributor, so the combine is exact — followed by a k-ascending
// sum on every rank. Unlike a scalar sum of per-rank partials, the result
// does not depend on how tiles are grouped over ranks, so it is
// bitwise-identical at any grid shape — the property that makes a re-run on
// a smaller World after a rank death identical to the unfaulted run.
func (d *DistTLR) LogDet(c *Comm) (float64, error) {
	d.inject(d.graph.Len())
	vec := make([]float64, d.MT)
	for k := 0; k < d.MT; k++ {
		if d.Owner(k, k) == c.Rank() {
			vec[k] = la.LogDetFromChol(d.Diag(k))
		}
	}
	sum, err := c.AllreduceSumVec(tagOf(kindSum, 0, 0), vec)
	if err != nil {
		return 0, err
	}
	var out float64
	for _, v := range sum {
		out += v
	}
	return out, nil
}

// solveMat solves op(L)·X = B in place against the factored shard, for L (ta
// NoTrans) or Lᵀ (Transpose) and any number of columns. B is replicated:
// every rank passes the full right-hand side and every rank returns with the
// full solution, so the quadratic form can be reduced from per-rank partial
// sums without a gather.
//
// The rows and their order are tile.SolveSweep's. In row i the owner of each
// off-diagonal tile forms its contribution −op(L)_ij·B_j — into B_i itself
// when it also owns the diagonal tile, otherwise into a zeroed buffer it ships
// to the diagonal owner, which adds what it receives in the sweep's order,
// the order shared memory subtracts in (for one column 0 + v is exact, so a
// vector solve is bitwise the shared one). The diagonal owner then solves the
// block and broadcasts it to every rank to restore replication.
func (d *DistTLR) solveMat(c *Comm, ta la.Trans, b *la.Mat) error {
	d.inject(d.graph.Len())
	kind, kindB := kindFwd, kindFwdB
	if ta == la.Transpose {
		kind, kindB = kindBwd, kindBwdB
	}
	return tile.SolveSweep(d.N, d.NB, ta, b,
		func(i, j int, bj, bi *la.Mat) error {
			r, q := max(i, j), min(i, j) // the stored tile
			owner, diagOwner := d.Owner(r, q), d.Owner(i, i)
			switch me := c.Rank(); {
			case me == owner && me == diagOwner:
				tlr.MatMul(d.Off(r, q), ta, -1, bj, bi)
			case me == owner:
				contrib := la.NewMat(bi.Rows, bi.Cols)
				tlr.MatMul(d.Off(r, q), ta, -1, bj, contrib)
				c.Send(diagOwner, tagOf(kind, r, q), contrib.Data)
			case me == diagOwner:
				contrib, err := c.Recv(owner, tagOf(kind, r, q))
				if err != nil {
					return err
				}
				bi.Add(la.NewMatFrom(bi.Rows, bi.Cols, contrib))
			}
			return nil
		},
		func(i int, bi *la.Mat) error {
			if diagOwner := d.Owner(i, i); c.Rank() != diagOwner {
				data, err := c.Recv(diagOwner, tagOf(kindB, i, 0))
				if err != nil {
					return err
				}
				bi.CopyFrom(la.NewMatFrom(bi.Rows, bi.Cols, data))
				return nil
			}
			la.Trsm(la.Left, la.Lower, ta, 1, d.Diag(i), bi)
			payload := bi.Clone().Data // compact: bi may be a column block of B
			for r := 0; r < c.Size(); r++ {
				if r != c.Rank() {
					c.Send(r, tagOf(kindB, i, 0), payload)
				}
			}
			return nil
		})
}

// ForwardSolveMat overwrites the replicated n×r block B with L⁻¹·B.
func (d *DistTLR) ForwardSolveMat(c *Comm, b *la.Mat) error { return d.solveMat(c, la.NoTrans, b) }

// BackwardSolveMat overwrites the replicated n×r block B with L⁻ᵀ·B.
func (d *DistTLR) BackwardSolveMat(c *Comm, b *la.Mat) error { return d.solveMat(c, la.Transpose, b) }
