package cluster

import (
	"math"
	"strings"
	"testing"

	"repro/internal/cov"
	"repro/internal/mpi"
)

func testTheta() cov.Params { return cov.Params{Variance: 1, Range: 0.1, Smoothness: 0.5} }

// small calibration shared across tests (real SVD compressions, so keep it
// modest).
var testModel = CalibrateRankModel(1e-7, testTheta(), 1024, 128)

func TestSquarishGrid(t *testing.T) {
	cases := map[int][2]int{
		1:    {1, 1},
		4:    {2, 2},
		6:    {2, 3},
		256:  {16, 16},
		1024: {32, 32},
		7:    {1, 7},
	}
	for n, want := range cases {
		g := NewMachine(ShaheenNode, n).Grid
		if g.P != want[0] || g.Q != want[1] {
			t.Errorf("%d nodes on grid %d,%d want %v", n, g.P, g.Q, want)
		}
		if g.P*g.Q != n {
			t.Errorf("grid of %d nodes does not factor", n)
		}
	}
}

func TestOwnerBlockCyclic(t *testing.T) {
	m := NewMachine(ShaheenNode, 6) // 2x3 grid
	seen := make(map[int]bool)
	for i := 0; i < 10; i++ {
		for j := 0; j < 10; j++ {
			o := m.Grid.Owner(i, j)
			if o < 0 || o >= 6 {
				t.Fatalf("owner out of range: %d", o)
			}
			seen[o] = true
		}
	}
	if len(seen) != 6 {
		t.Fatalf("block-cyclic did not use all nodes: %v", seen)
	}
	if m.Grid.Owner(0, 0) != m.Grid.Owner(2, 3) {
		t.Fatal("cyclic periodicity broken")
	}
}

func TestRankModelBasics(t *testing.T) {
	// Ranks decrease (weakly) with tile distance and are within [1, nb].
	prev := math.MaxInt
	for _, d := range []int{1, 2, 4, 7} {
		k := testModel.Rank(128, d)
		if k < 1 || k > 128 {
			t.Fatalf("rank out of bounds: %d", k)
		}
		if k > prev {
			t.Fatalf("rank grew with distance: d=%d k=%d prev=%d", d, k, prev)
		}
		prev = k
	}
}

func TestRankModelAccuracyOrdering(t *testing.T) {
	loose := CalibrateRankModel(1e-3, testTheta(), 512, 128)
	tight := CalibrateRankModel(1e-9, testTheta(), 512, 128)
	if loose.Rank(128, 1) > tight.Rank(128, 1) {
		t.Fatalf("looser accuracy should not need larger ranks: %d vs %d",
			loose.Rank(128, 1), tight.Rank(128, 1))
	}
	if tight.Rank(128, 1) <= 2 {
		t.Fatalf("tight-accuracy near-diagonal rank suspiciously small: %d", tight.Rank(128, 1))
	}
}

func TestRankModelTileSizeScaling(t *testing.T) {
	k1 := testModel.Rank(128, 2)
	k2 := testModel.Rank(1024, 2)
	if k2 < k1 {
		t.Fatalf("rank should grow (logarithmically) with tile size: %d -> %d", k1, k2)
	}
	if k2 > 4*k1 {
		t.Fatalf("rank growth with tile size too fast: %d -> %d", k1, k2)
	}
}

func TestTLRFasterThanDenseAtScale(t *testing.T) {
	m := NewMachine(ShaheenNode, 16)
	n := 250_000
	dense := AnalyticCholesky(m, Workload{N: n, NB: 560, Variant: Dense})
	tlr := AnalyticCholesky(m, Workload{N: n, NB: 1900, Variant: TLRVariant, Ranks: testModel})
	if dense.OOM || tlr.OOM {
		t.Fatalf("unexpected OOM: dense=%v tlr=%v", dense.OOM, tlr.OOM)
	}
	if tlr.Seconds >= dense.Seconds {
		t.Fatalf("TLR (%gs) not faster than dense (%gs) at n=%d", tlr.Seconds, dense.Seconds, n)
	}
	speedup := dense.Seconds / tlr.Seconds
	if speedup > 100 {
		t.Fatalf("speedup %g implausibly large — cost model broken", speedup)
	}
}

func TestLooserAccuracyIsFaster(t *testing.T) {
	m := NewMachine(ShaheenNode, 16)
	n := 250_000
	loose := CalibrateRankModel(1e-5, testTheta(), 1024, 128)
	tight := CalibrateRankModel(1e-9, testTheta(), 1024, 128)
	tl := AnalyticCholesky(m, Workload{N: n, NB: 1900, Variant: TLRVariant, Ranks: loose}).Seconds
	tt := AnalyticCholesky(m, Workload{N: n, NB: 1900, Variant: TLRVariant, Ranks: tight}).Seconds
	if tl > tt {
		t.Fatalf("looser accuracy slower: 1e-5 %gs vs 1e-9 %gs", tl, tt)
	}
}

func TestDenseOOMAtScale(t *testing.T) {
	// 2M locations on 256 Shaheen nodes: dense working set (2×) exceeds
	// 128 GB/node — the missing full-tile points of Fig. 4.
	m := NewMachine(ShaheenNode, 256)
	r := AnalyticCholesky(m, Workload{N: 2_000_000, NB: 560, Variant: Dense})
	if !r.OOM {
		t.Fatalf("expected OOM for dense 2M on 256 nodes (max node bytes %d)", r.MaxNodeBytes)
	}
	// TLR at the same size fits.
	rt := AnalyticCholesky(m, Workload{N: 2_000_000, NB: 1900, Variant: TLRVariant, Ranks: testModel})
	if rt.OOM {
		t.Fatalf("TLR should fit at 2M/256 nodes (max node bytes %d)", rt.MaxNodeBytes)
	}
}

func TestSimulateBlockSlowerThanTile(t *testing.T) {
	m := NewMachine(Haswell, 1)
	n := 60_000
	blk := SimulateBlockCholesky(m, n)
	til := AnalyticCholesky(m, Workload{N: n, NB: 560, Variant: Dense})
	if blk.Seconds <= til.Seconds {
		t.Fatalf("full-block (%gs) should be slower than full-tile (%gs)", blk.Seconds, til.Seconds)
	}
}

func TestSimulatePredictionDominatedByCholesky(t *testing.T) {
	m := NewMachine(ShaheenNode, 16)
	w := Workload{N: 200_000, NB: 1900, Variant: TLRVariant, Ranks: testModel}
	chol := AnalyticCholesky(m, w)
	pred := AnalyticPrediction(m, w, 100)
	if pred.Seconds < chol.Seconds {
		t.Fatal("prediction cannot be faster than its factorization")
	}
	if pred.Seconds > 2*chol.Seconds {
		t.Fatalf("solve phase should be small: chol %gs pred %gs", chol.Seconds, pred.Seconds)
	}
}

func TestCommBytesNonzeroMultiNode(t *testing.T) {
	w := Workload{N: 100_000, NB: 1000, Variant: Dense}
	single := AnalyticCholesky(NewMachine(ShaheenNode, 1), w)
	multi := AnalyticCholesky(NewMachine(ShaheenNode, 16), w)
	if single.CommBytes != 0 {
		t.Fatalf("single node should not communicate: %g", single.CommBytes)
	}
	if multi.CommBytes <= 0 {
		t.Fatal("multi-node run reported zero communication")
	}
}

func TestTLRWithoutRanksPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for TLR workload without rank model")
		}
	}()
	AnalyticCholesky(NewMachine(ShaheenNode, 4), Workload{N: 10000, NB: 500, Variant: TLRVariant})
}

// TestZeroFieldsNameTheField: a forgotten field of the public model API
// is refused where the cost table is built, by name, for the roofline model,
// its prediction model and the communication model alike — not a
// divide by zero, a nil dereference or +Inf seconds.
func TestZeroFieldsNameTheField(t *testing.T) {
	ok := NewMachine(ShaheenNode, 4)
	dense := Workload{N: 10_000, NB: 500, Variant: Dense}
	cases := []struct {
		name string
		m    Machine
		w    Workload
		want string
	}{
		{"no N", ok, Workload{NB: 500}, "Workload.N"},
		{"no NB", ok, Workload{N: 1000}, "Workload.NB"},
		{"literal machine", Machine{Profile: Haswell}, dense, "Machine.Nodes"},
		{"grid does not cover nodes", Machine{Profile: ShaheenNode, Nodes: 4, Grid: mpi.Grid{P: 1, Q: 2}}, dense, "Machine.Grid"},
		{"no rank model", ok, Workload{N: 10_000, NB: 500, Variant: TLRVariant}, "Workload.Ranks"},
	}
	models := map[string]func(Machine, Workload){
		"AnalyticCholesky":   func(m Machine, w Workload) { AnalyticCholesky(m, w) },
		"AnalyticPrediction": func(m Machine, w Workload) { AnalyticPrediction(m, w, 100) },
		"DistCholeskyComm": func(m Machine, w Workload) {
			DistCholeskyComm(m.Grid, w.N, w.NB, w.Ranks, w.Variant == Dense)
		},
	}
	for _, tc := range cases {
		for name, run := range models {
			if name == "DistCholeskyComm" && tc.want == "Machine.Grid" {
				continue // it is given the grid alone; its node count is P·Q
			}
			func() {
				defer func() {
					msg, _ := recover().(string)
					if !strings.HasPrefix(msg, "cluster: ") || !strings.Contains(msg, tc.want) {
						t.Errorf("%s, %s: panic %q, want a cluster message naming %s", name, tc.name, msg, tc.want)
					}
				}()
				run(tc.m, tc.w)
				t.Errorf("%s, %s: returned, want a panic naming %s", name, tc.name, tc.want)
			}()
		}
	}
}
