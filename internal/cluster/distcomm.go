package cluster

import (
	"repro/internal/mpi"
	"repro/internal/runtime"
	"repro/internal/tlr"
)

// DistCholeskyComm predicts the bytes each rank sends during one distributed
// Cholesky factorization on the given process grid — compressed tiles, or
// with dense set every off-diagonal tile stored densely. It prices the
// transfers runtime.Graph.Place infers over tlr.BuildGenCholeskyGraph, the
// very DAG and list mpi.DistTLR's ranks walk and send, each at the tile's
// wire size: a diagonal factor as its di·di doubles, an off-diagonal tile as
// tlr.CompTile.Encode's three-word header plus di·dj doubles when dense or
// (di+dj)·r when compressed, with r predicted by the calibrated RankModel at
// index distance i−j.
//
// The TLR prediction is approximate only through the rank model: a tile is
// sent once, final, and its rank after the exact Schur update differs from
// the fresh-compression value the model was calibrated on. The returned
// slice has one entry per rank, indexable by mpi rank id.
func DistCholeskyComm(grid mpi.Grid, n, nb int, ranks *RankModel, dense bool) []float64 {
	w := Workload{N: n, NB: nb, Variant: TLRVariant, Ranks: ranks}
	if dense {
		w.Variant = Dense
	}
	c := newCostTable(Machine{Nodes: grid.P * grid.Q, Grid: grid}, w)
	m := tlr.NewMatrix(n, nb, 0)
	owner := func(h *runtime.Handle) int { return grid.Owner(m.TileOf(h)) }
	sent := make([]float64, grid.P*grid.Q)
	for _, x := range tlr.BuildGenCholeskyGraph(m, &tlr.GenSpec{}, false).Place(owner).Transfers {
		i, j := m.TileOf(x.Handle)
		words := m.TileDim(i) * m.TileDim(j)
		switch {
		case i != j && dense:
			words += 3
		case i != j:
			words = 3 + (m.TileDim(i)+m.TileDim(j))*c.rank[i-j]
		}
		sent[owner(x.Handle)] += float64(8 * words)
	}
	return sent
}
