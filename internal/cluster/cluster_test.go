package cluster

import (
	"math"
	"strings"
	"testing"

	"repro/internal/cov"
	"repro/internal/mpi"
	"repro/internal/runtime"
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

func TestDenseSimFlopsMatchClosedForm(t *testing.T) {
	m := NewMachine(ShaheenNode, 4)
	w := Workload{N: 1 << 15, NB: 512, Variant: Dense}
	r := SimulateCholesky(m, w)
	want := float64(w.N) * float64(w.N) * float64(w.N) / 3
	if math.Abs(r.TotalFlops-want)/want > 0.05 {
		t.Fatalf("dense sim flops %g vs n^3/3 = %g", r.TotalFlops, want)
	}
	if r.OOM || r.Seconds <= 0 {
		t.Fatalf("unexpected result: %+v", r)
	}
}

func TestSimScalesWithNodes(t *testing.T) {
	w := Workload{N: 100_000, NB: 560, Variant: Dense}
	t4 := SimulateCholesky(NewMachine(ShaheenNode, 4), w).Seconds
	t16 := SimulateCholesky(NewMachine(ShaheenNode, 16), w).Seconds
	if t16 >= t4 {
		t.Fatalf("no strong scaling: 4 nodes %gs, 16 nodes %gs", t4, t16)
	}
	if t16 < t4/8 {
		t.Fatalf("unrealistically superlinear scaling: %g -> %g", t4, t16)
	}
}

func TestTLRFasterThanDenseAtScale(t *testing.T) {
	m := NewMachine(ShaheenNode, 16)
	n := 250_000
	dense := SimulateCholesky(m, Workload{N: n, NB: 560, Variant: Dense})
	tlr := SimulateCholesky(m, Workload{N: n, NB: 1900, Variant: TLRVariant, Ranks: testModel})
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
	tl := SimulateCholesky(m, Workload{N: n, NB: 1900, Variant: TLRVariant, Ranks: loose}).Seconds
	tt := SimulateCholesky(m, Workload{N: n, NB: 1900, Variant: TLRVariant, Ranks: tight}).Seconds
	if tl > tt {
		t.Fatalf("looser accuracy slower: 1e-5 %gs vs 1e-9 %gs", tl, tt)
	}
}

func TestDenseOOMAtScale(t *testing.T) {
	// 2M locations on 256 Shaheen nodes: dense working set (2×) exceeds
	// 128 GB/node — the missing full-tile points of Fig. 4.
	m := NewMachine(ShaheenNode, 256)
	r := SimulateCholesky(m, Workload{N: 2_000_000, NB: 560, Variant: Dense})
	if !r.OOM {
		t.Fatalf("expected OOM for dense 2M on 256 nodes (max node bytes %d)", r.MaxNodeBytes)
	}
	// TLR at the same size fits.
	rt := SimulateCholesky(m, Workload{N: 2_000_000, NB: 1900, Variant: TLRVariant, Ranks: testModel})
	if rt.OOM {
		t.Fatalf("TLR should fit at 2M/256 nodes (max node bytes %d)", rt.MaxNodeBytes)
	}
}

func TestCoarseningCap(t *testing.T) {
	if desTileRows != 128 {
		t.Fatalf("the DES coarsens to %d tile rows, want 128", desTileRows)
	}
	m := NewMachine(ShaheenNode, 256)
	w := Workload{N: 2_000_000, NB: 560, Variant: Dense}
	c := newCostTable(m, w, desTileRows)
	if c.mt != desTileRows {
		t.Fatalf("coarsening cap not applied: mt=%d", c.mt)
	}
	if c.nb*c.mt < w.N {
		t.Fatalf("coarsened tiling does not cover the matrix: %d*%d < %d", c.nb, c.mt, w.N)
	}
	// Under the cap, and for the roofline model at any size, the tiling is
	// the workload's own.
	if c := newCostTable(m, Workload{N: 60_000, NB: 1000}, desTileRows); c.nb != 1000 || c.mt != 60 {
		t.Fatalf("tiling under the cap changed: nb=%d mt=%d", c.nb, c.mt)
	}
	if c := newCostTable(m, w, 0); c.nb != 560 || c.mt != 3572 {
		t.Fatalf("true-granularity tiling changed: nb=%d mt=%d", c.nb, c.mt)
	}
}

func TestSimulateBlockSlowerThanTile(t *testing.T) {
	m := NewMachine(Haswell, 1)
	n := 60_000
	blk := SimulateBlockCholesky(m, n)
	til := SimulateCholesky(m, Workload{N: n, NB: 560, Variant: Dense})
	if blk.Seconds <= til.Seconds {
		t.Fatalf("full-block (%gs) should be slower than full-tile (%gs)", blk.Seconds, til.Seconds)
	}
}

func TestSimulatePredictionDominatedByCholesky(t *testing.T) {
	m := NewMachine(ShaheenNode, 16)
	w := Workload{N: 200_000, NB: 1900, Variant: TLRVariant, Ranks: testModel}
	chol := SimulateCholesky(m, w)
	pred := SimulatePrediction(m, w, 100)
	if pred.Seconds < chol.Seconds {
		t.Fatal("prediction cannot be faster than its factorization")
	}
	if pred.Seconds > 2*chol.Seconds {
		t.Fatalf("solve phase should be small: chol %gs pred %gs", chol.Seconds, pred.Seconds)
	}
}

func TestCommBytesNonzeroMultiNode(t *testing.T) {
	w := Workload{N: 100_000, NB: 1000, Variant: Dense}
	single := SimulateCholesky(NewMachine(ShaheenNode, 1), w)
	multi := SimulateCholesky(NewMachine(ShaheenNode, 16), w)
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
	SimulateCholesky(NewMachine(ShaheenNode, 4), Workload{N: 10000, NB: 500, Variant: TLRVariant})
}

// TestZeroFieldsNameTheField: a forgotten field of the public simulator API
// is refused where the cost table is built, by name, for the DES, the roofline
// model, both prediction models and the communication model alike — not a
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
		"SimulateCholesky":   func(m Machine, w Workload) { SimulateCholesky(m, w) },
		"SimulatePrediction": func(m Machine, w Workload) { SimulatePrediction(m, w, 100) },
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

// TestScheduleCountsRemoteReads: on a hand-built DAG over two nodes CommBytes
// is the summed size of the tiles read on a node that does not own them, and a
// remote read delays its task by one latency plus bytes/bandwidth.
func TestScheduleCountsRemoteReads(t *testing.T) {
	m := NewMachine(Profile{Cores: 1, GFlopsPerCore: 1, MemBWGBs: 1e9, NetLatency: 0.5, NetBWGBs: 1e-6}, 2)
	g := runtime.NewGraph()
	a := g.NewHandle("a", 1000, 0) // Tag is the owning node
	b := g.NewHandle("b", 3000, 1)
	c := g.NewHandle("c", 500, 1)
	g.AddTask(runtime.Task{Name: "wa", Flops: 1e9, Accesses: []runtime.Access{{Handle: a, Mode: runtime.Write}}})
	g.AddTask(runtime.Task{Name: "wb", Flops: 2e9, Accesses: []runtime.Access{{Handle: b, Mode: runtime.Write}}})
	// on node 1: reads a remotely (1000 bytes), b locally
	g.AddTask(runtime.Task{Name: "c=a+b", Flops: 1e9, Accesses: []runtime.Access{
		{Handle: a, Mode: runtime.Read}, {Handle: b, Mode: runtime.Read}, {Handle: c, Mode: runtime.ReadWrite}}})
	// on node 0: reads b and c remotely (3500 bytes)
	g.AddTask(runtime.Task{Name: "a+=b+c", Flops: 1e9, Accesses: []runtime.Access{
		{Handle: b, Mode: runtime.Read}, {Handle: c, Mode: runtime.Read}, {Handle: a, Mode: runtime.ReadWrite}}})
	makespan, comm := schedule(m, g, func(h *runtime.Handle) int { return int(h.Tag) })
	if comm != 1000+3000+500 {
		t.Fatalf("CommBytes %g, want 4500", comm)
	}
	// wa ends at 1, wb at 2; a reaches node 1 at 1+0.5+1 = 2.5, so c=a+b runs
	// 2.5→3.5; c reaches node 0 at 3.5+0.5+0.5 = 4.5 (b at 2+0.5+3 = 5.5), so
	// the last task runs 5.5→6.5.
	if makespan != 6.5 {
		t.Fatalf("makespan %g, want 6.5", makespan)
	}
}
