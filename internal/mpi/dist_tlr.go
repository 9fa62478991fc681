package mpi

import (
	"fmt"

	"repro/internal/cov"
	"repro/internal/geom"
	"repro/internal/la"
	"repro/internal/tile"
	"repro/internal/tlr"
)

// DistTLR is one rank's shard of a 2D block-cyclically distributed TLR
// matrix: a tlr.Matrix in which only the tiles this rank owns are populated,
// the tlr.GenSpec they are generated from, and the owner map. Messages carry
// the compressed factors (tlr.CompTile.Encode), so a rank-r tile costs
// (di+dk)·r doubles on the wire instead of the di·dk a dense tile would — the
// communication saving the paper's distributed TLR runs exploit.
//
// The shard is a reusable shell: Generate rebuilds the owned tiles for a new
// θ in place, so core's distributed likelihood evaluator regenerates and
// refactors once per optimizer iteration without reallocating the shard.
// MaxRank (on the Matrix) and ForceMiss (on the GenSpec) act as they do in
// shared memory.
type DistTLR struct {
	*tlr.Matrix
	*tlr.GenSpec
	Grid Grid
	Rank int

	// PanelHook, when non-nil, is called by every rank at the start of each
	// Cholesky panel — the deterministic kill point chaos injection targets
	// to exercise elastic recovery at a reproducible panel epoch.
	PanelHook func(rank, k int)

	// Owners maps tiles to physical ranks through the membership overlay:
	// identical to Grid while every rank lives, remapped deterministically
	// to the survivors after a shrink (see OwnerMap).
	Owners *OwnerMap
}

// NewDistTLR allocates rank's empty shard of an n×n TLR matrix distributed
// over grid. Call Generate to fill it for a given covariance kernel.
func NewDistTLR(rank int, grid Grid, pts []geom.Point, metric geom.Metric, nb int, tol float64, comp tlr.Compressor) *DistTLR {
	return &DistTLR{
		Matrix:  tlr.NewMatrix(len(pts), nb, tol),
		GenSpec: &tlr.GenSpec{Pts: pts, Metric: metric, Comp: comp},
		Grid:    grid, Rank: rank,
		Owners: NewOwnerMap(grid),
	}
}

// Owner returns the physical rank owning tile (i, j) under the current
// membership (identical to Grid.Owner until a rank dies).
func (d *DistTLR) Owner(i, j int) int { return d.Owners.Owner(i, j) }

// Generate (re)builds the owned tiles of Σ(θ) with the generator the
// shared-memory tlr.GenCholesky tasks run, so tile contents are
// bitwise-identical to that pipeline at any grid shape, whichever rank
// generates them — original owner or a survivor inheriting the tile after a
// failure.
func (d *DistTLR) Generate(k *cov.Kernel, nugget float64) {
	d.K, d.Nugget = k, nugget
	for i := 0; i < d.MT; i++ {
		for j := 0; j <= i; j++ {
			if d.Owner(i, j) != d.Rank {
				continue
			}
			if i == j {
				d.GenDiag(d.GenSpec, i)
			} else {
				d.GenOff(d.GenSpec, i, j)
			}
		}
	}
}

// ApplyMembership remaps tile ownership to an agreed membership view (the
// []bool from Comm.AgreeAlive). Survivors keep every tile they hold; dead
// ranks' slots are dealt deterministically to the survivors. Returns the
// slots that changed hands. Follow with Generate, which materializes the
// inherited tiles along with the rest of the shard.
func (d *DistTLR) ApplyMembership(alive []bool) []int {
	return d.Owners.Reassign(alive)
}

// Cholesky factors the distributed TLR matrix in place, cooperating with the
// other ranks of comm. Right-looking, panel by panel:
//
//  1. the owner of (k, k) runs a dense POTRF and ships L_kk to the owners of
//     the column-k panel tiles (Grid.DiagRecipients);
//  2. each panel owner applies the compressed TRSM (V ← L_kk⁻¹·V) and ships
//     the compressed tile to exactly the ranks that consume it in the
//     trailing update (Grid.PanelRecipients), so mailboxes drain completely
//     and the World can be reused for the next θ;
//  3. owned trailing tiles are updated with the same SyrkLD/GemmLL kernels as
//     the shared-memory path, in the same k-ascending per-tile order the
//     shared DAG serializes to.
//
// A non-SPD pivot is agreed via one small allreduce per panel and returned
// as an error on every rank, with all broadcasts still consumed.
//
// A run that a rank failure aborts leaves the shard half factored; nothing
// here resumes it. The caller regenerates the shard (Generate, after
// ApplyMembership on the survivors) and factors again: each tile's updates
// are applied in fixed k-ascending order whoever owns it, so the result is
// bitwise-identical to an unfaulted factorization.
func (d *DistTLR) Cholesky(c *Comm) error {
	own := d.Owner
	mt := d.MT
	for k := 0; k < mt; k++ {
		if d.PanelHook != nil {
			d.PanelHook(c.Rank(), k)
		}
		var lkk *la.Mat
		diagOwner := own(k, k)
		diagTo := diagRecipients(own, k, mt)
		failed := 0.0
		if c.Rank() == diagOwner {
			t := d.Diag(k)
			if err := la.Potrf(t); err != nil {
				failed = 1
			}
			lkk = t
			for _, r := range diagTo {
				c.Send(r, tagOf(kindLkk, k, k), t.Data[:t.Rows*t.Stride])
			}
		} else if contains(diagTo, c.Rank()) {
			dk := d.TileDim(k)
			data, err := c.Recv(diagOwner, tagOf(kindLkk, k, k))
			if err != nil {
				return err
			}
			lkk = la.NewMatFrom(dk, dk, data)
		}
		bad, err := c.AllreduceSum(tagOf(kindFail, k, 0), failed)
		if err != nil {
			return err
		}
		if bad > 0 {
			return fmt.Errorf("mpi: TLR matrix not positive definite at panel %d: %w", k, la.ErrNotPositiveDefinite)
		}

		for i := k + 1; i < mt; i++ {
			if c.Rank() == own(i, k) {
				t := d.Off(i, k)
				tlr.TrsmLD(lkk, t)
				payload := t.Encode()
				for _, r := range panelRecipients(own, i, k, mt) {
					c.Send(r, tagOf(kindPanel, i, k), payload)
				}
			}
		}

		panel := map[int]*tlr.CompTile{}
		needPanel := func(i int) (*tlr.CompTile, error) {
			if t, ok := panel[i]; ok {
				return t, nil
			}
			t := d.Off(i, k)
			if owner := own(i, k); c.Rank() != owner {
				data, err := c.Recv(owner, tagOf(kindPanel, i, k))
				if err != nil {
					return nil, err
				}
				t = new(tlr.CompTile)
				if err := t.Decode(data); err != nil {
					return nil, fmt.Errorf("mpi: panel tile (%d,%d) from rank %d: %w", i, k, owner, err)
				}
			}
			panel[i] = t
			return t, nil
		}
		for i := k + 1; i < mt; i++ {
			for j := k + 1; j <= i; j++ {
				if own(i, j) != c.Rank() {
					continue
				}
				pi, err := needPanel(i)
				if err != nil {
					return err
				}
				if i == j {
					tlr.SyrkLD(d.Diag(i), pi)
				} else {
					pj, err := needPanel(j)
					if err != nil {
						return err
					}
					d.UpdateOff(i, j, pi, pj)
				}
			}
		}
	}
	return nil
}

// LogDet computes log|A| after Cholesky (the paper's first likelihood term).
// The reduction is a per-tile vector allreduce — each slot has exactly one
// nonzero contributor, so the combine is exact — followed by a k-ascending
// sum on every rank. Unlike a scalar sum of per-rank partials, the result
// does not depend on how tiles are grouped over ranks, so it is
// bitwise-identical at any grid shape and across membership changes — the
// property the elastic-recovery "identical to the unfaulted run" guarantee
// rests on.
func (d *DistTLR) LogDet(c *Comm) (float64, error) {
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
			for _, r := range c.AliveRanks() {
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
