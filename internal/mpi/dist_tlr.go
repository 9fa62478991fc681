package mpi

import (
	"fmt"

	"repro/internal/cov"
	"repro/internal/geom"
	"repro/internal/la"
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

// ForwardSolve solves L·x = b in place against the factored shard. b is
// replicated: every rank passes the full right-hand side and every rank
// returns with the full solution, so the quadratic form can be reduced from
// per-rank partial sums without a gather.
//
// Row by row, the owners of the row's off-diagonal tiles compute their
// contributions L_ij·b_j and ship them to the diagonal owner, which
// subtracts them in ascending j order — the same order the shared-memory
// ForwardSolve subtracts them — solves the diagonal block, and broadcasts
// the solved block to every rank to restore replication.
func (d *DistTLR) ForwardSolve(c *Comm, b []float64) error {
	if len(b) != d.N {
		panic("mpi: ForwardSolve length mismatch")
	}
	for i := 0; i < d.MT; i++ {
		di := d.TileDim(i)
		bi := b[i*d.NB : i*d.NB+di]
		diagOwner := d.Owner(i, i)
		// contribution senders
		if c.Rank() != diagOwner {
			for j := 0; j < i; j++ {
				if c.Rank() != d.Owner(i, j) {
					continue
				}
				bj := b[j*d.NB : j*d.NB+d.TileDim(j)]
				contrib := make([]float64, di)
				tlr.MatVec(d.Off(i, j), -1, bj, contrib)
				c.Send(diagOwner, tagOf(kindFwd, i, j), contrib)
			}
		}
		if c.Rank() == diagOwner {
			for j := 0; j < i; j++ {
				owner := d.Owner(i, j)
				if owner == c.Rank() {
					bj := b[j*d.NB : j*d.NB+d.TileDim(j)]
					tlr.MatVec(d.Off(i, j), -1, bj, bi)
					continue
				}
				contrib, err := c.Recv(owner, tagOf(kindFwd, i, j))
				if err != nil {
					return err
				}
				for a := range bi {
					bi[a] += contrib[a]
				}
			}
			la.ForwardSolveVec(d.Diag(i), bi)
			for _, r := range c.AliveRanks() {
				if r != c.Rank() {
					c.Send(r, tagOf(kindFwdB, i, 0), bi)
				}
			}
		} else {
			data, err := c.Recv(diagOwner, tagOf(kindFwdB, i, 0))
			if err != nil {
				return err
			}
			copy(bi, data)
		}
	}
	return nil
}

// BackwardSolve solves Lᵀ·x = b in place against the factored shard, with
// the same replicated-vector protocol as ForwardSolve. Contributions
// (L_ji)ᵀ·b_j are subtracted in descending j order, matching the
// shared-memory BackwardSolve arithmetic.
func (d *DistTLR) BackwardSolve(c *Comm, b []float64) error {
	if len(b) != d.N {
		panic("mpi: BackwardSolve length mismatch")
	}
	for i := d.MT - 1; i >= 0; i-- {
		di := d.TileDim(i)
		bi := b[i*d.NB : i*d.NB+di]
		diagOwner := d.Owner(i, i)
		if c.Rank() != diagOwner {
			for j := d.MT - 1; j > i; j-- {
				if c.Rank() != d.Owner(j, i) {
					continue
				}
				bj := b[j*d.NB : j*d.NB+d.TileDim(j)]
				contrib := make([]float64, di)
				tlr.MatVecT(d.Off(j, i), -1, bj, contrib)
				c.Send(diagOwner, tagOf(kindBwd, j, i), contrib)
			}
		}
		if c.Rank() == diagOwner {
			for j := d.MT - 1; j > i; j-- {
				owner := d.Owner(j, i)
				if owner == c.Rank() {
					bj := b[j*d.NB : j*d.NB+d.TileDim(j)]
					tlr.MatVecT(d.Off(j, i), -1, bj, bi)
					continue
				}
				contrib, err := c.Recv(owner, tagOf(kindBwd, j, i))
				if err != nil {
					return err
				}
				for a := range bi {
					bi[a] += contrib[a]
				}
			}
			bm := la.NewMatFrom(di, 1, bi)
			la.Trsm(la.Left, la.Lower, la.Transpose, 1, d.Diag(i), bm)
			for _, r := range c.AliveRanks() {
				if r != c.Rank() {
					c.Send(r, tagOf(kindBwdB, i, 0), bi)
				}
			}
		} else {
			data, err := c.Recv(diagOwner, tagOf(kindBwdB, i, 0))
			if err != nil {
				return err
			}
			copy(bi, data)
		}
	}
	return nil
}

// Solve computes A⁻¹·b in place given the distributed TLR Cholesky factors.
func (d *DistTLR) Solve(c *Comm, b []float64) error {
	if err := d.ForwardSolve(c, b); err != nil {
		return err
	}
	return d.BackwardSolve(c, b)
}

// ForwardSolveMat solves L·X = B in place for a replicated dense right-hand
// side (prediction's cross-covariance panels), with the same row-by-row
// protocol as ForwardSolve.
func (d *DistTLR) ForwardSolveMat(c *Comm, b *la.Mat) error {
	if b.Rows != d.N {
		panic("mpi: ForwardSolveMat dimension mismatch")
	}
	nc := b.Cols
	for i := 0; i < d.MT; i++ {
		di := d.TileDim(i)
		bi := b.View(i*d.NB, 0, di, nc)
		diagOwner := d.Owner(i, i)
		if c.Rank() != diagOwner {
			for j := 0; j < i; j++ {
				if c.Rank() != d.Owner(i, j) {
					continue
				}
				bj := b.View(j*d.NB, 0, d.TileDim(j), nc)
				contrib := la.NewMat(di, nc)
				tlr.MatMul(d.Off(i, j), -1, bj, contrib)
				c.Send(diagOwner, tagOf(kindFwd, i, j), contrib.Data)
			}
		}
		if c.Rank() == diagOwner {
			for j := 0; j < i; j++ {
				owner := d.Owner(i, j)
				if owner == c.Rank() {
					bj := b.View(j*d.NB, 0, d.TileDim(j), nc)
					tlr.MatMul(d.Off(i, j), -1, bj, bi)
					continue
				}
				contrib, err := c.Recv(owner, tagOf(kindFwd, i, j))
				if err != nil {
					return err
				}
				for a := 0; a < di; a++ {
					row := bi.Row(a)
					crow := contrib[a*nc : a*nc+nc]
					for q := range row {
						row[q] += crow[q]
					}
				}
			}
			la.Trsm(la.Left, la.Lower, la.NoTrans, 1, d.Diag(i), bi)
			payload := make([]float64, 0, di*nc)
			for a := 0; a < di; a++ {
				payload = append(payload, bi.Row(a)...)
			}
			for _, r := range c.AliveRanks() {
				if r != c.Rank() {
					c.Send(r, tagOf(kindFwdB, i, 0), payload)
				}
			}
		} else {
			data, err := c.Recv(diagOwner, tagOf(kindFwdB, i, 0))
			if err != nil {
				return err
			}
			for a := 0; a < di; a++ {
				copy(bi.Row(a), data[a*nc:a*nc+nc])
			}
		}
	}
	return nil
}
