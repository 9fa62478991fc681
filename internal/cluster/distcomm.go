package cluster

import (
	"repro/internal/mpi"
	"repro/internal/runtime"
)

// DistCholeskyComm predicts the bytes each rank sends during one distributed
// Cholesky factorization on the given process grid — compressed tiles, or
// with dense set every off-diagonal tile stored densely. It prices the
// transfers runtime.Graph.Place infers over the sweep's DAG, the very list
// mpi.DistTLR's ranks send, each at the tile's wire size: a diagonal factor
// as its di·di doubles, an off-diagonal tile as tlr.CompTile.Encode's
// three-word header plus di·dj doubles when dense or (di+dj)·r when
// compressed, with r predicted by the calibrated RankModel at index distance
// i−j.
//
// The TLR prediction is approximate only through the rank model: by the time
// tile (i, j) is sent its rank has drifted from the fresh-compression value
// under the accumulated low-rank updates. The returned slice has one entry
// per rank, indexable by mpi rank id.
func DistCholeskyComm(grid mpi.Grid, n, nb int, ranks *RankModel, dense bool) []float64 {
	w := Workload{N: n, NB: nb, Variant: TLRVariant, Ranks: ranks}
	if dense {
		w.Variant = Dense
	}
	c := newCostTable(Machine{Nodes: grid.P * grid.Q, Grid: grid}, w, 0)
	owner := func(h *runtime.Handle) int { return grid.Owner(tileOf(h)) }
	dim := func(i int) int { return min(nb, n-i*nb) }
	sent := make([]float64, grid.P*grid.Q)
	for _, x := range c.buildDAG().Place(owner).Transfers {
		i, j := tileOf(x.Handle)
		words := dim(i) * dim(j)
		switch {
		case i != j && dense:
			words += 3
		case i != j:
			words = 3 + (dim(i)+dim(j))*c.rank[i-j]
		}
		sent[owner(x.Handle)] += float64(8 * words)
	}
	return sent
}
