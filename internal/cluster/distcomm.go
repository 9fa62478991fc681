package cluster

import "repro/internal/mpi"

// DistCholeskyComm predicts the bytes each rank sends during one distributed
// Cholesky factorization on the given process grid, mirroring the message
// pattern of mpi.DistTLR.Cholesky step by step — compressed tiles, or with
// dense set every off-diagonal tile stored densely:
//
//   - the owner of the diagonal tile (k,k) broadcasts the dk×dk factor to
//     every rank in Grid.DiagRecipients(k, mt);
//   - every rank participates in the per-panel SPD agreement, an
//     AllreduceSum in which each non-root rank sends one float64 to rank 0
//     and rank 0 replies with one float64 to each non-root rank;
//   - the owner of each panel tile (i,k) sends it to every rank in
//     Grid.PanelRecipients(i, k, mt) — a [rows, cols, rank] header plus
//     di·dk doubles when dense, (di+dk)·r doubles when compressed, with r
//     predicted by the calibrated RankModel at index distance i−k.
//
// The TLR prediction is approximate only through the rank model: by the time
// tile (i,k) is sent its rank has drifted from the fresh-compression value
// under the accumulated low-rank updates. The returned slice has one entry
// per rank, indexable by mpi rank id.
func DistCholeskyComm(grid mpi.Grid, n, nb int, ranks *RankModel, dense bool) []float64 {
	w := Workload{N: n, NB: nb, Variant: TLRVariant, Ranks: ranks}
	if dense {
		w.Variant = Dense
	}
	size := grid.P * grid.Q
	c := newCostTable(Machine{Nodes: size, Grid: grid}, w, 0)
	sent := make([]float64, size)
	mt := c.mt
	tileDim := func(i int) int {
		if d := n - i*nb; d < nb {
			return d
		}
		return nb
	}
	for k := 0; k < mt; k++ {
		dk := tileDim(k)
		diagOwner := grid.Owner(k, k)
		sent[diagOwner] += float64(len(grid.DiagRecipients(k, mt)) * dk * dk * 8)
		if size > 1 {
			// SPD-agreement AllreduceSum: one float64 up, one down.
			sent[0] += float64((size - 1) * 8)
			for r := 1; r < size; r++ {
				sent[r] += 8
			}
		}
		for i := k + 1; i < mt; i++ {
			di := tileDim(i)
			doubles := 3 + di*dk
			if !dense {
				doubles = 3 + (di+dk)*c.rank[i-k]
			}
			sent[grid.Owner(i, k)] += float64(len(grid.PanelRecipients(i, k, mt)) * doubles * 8)
		}
	}
	return sent
}
