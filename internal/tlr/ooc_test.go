package tlr

import (
	"errors"
	"math"
	"testing"

	"repro/internal/chaos"
	"repro/internal/geom"
	"repro/internal/la"
	"repro/internal/runtime"
)

// oocFactor builds and factors Σ(θ) under the given memory budget,
// returning the matrix and its cache.
func oocFactor(t *testing.T, n, nb int, budget int64, workers int) (*Matrix, *SpillCache) {
	t.Helper()
	g, m, c := oocGraph(t, n, nb, budget)
	if err := g.Execute(runtime.ExecOptions{Workers: workers}); err != nil {
		t.Fatal(err)
	}
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	return m, c
}

// oocGraph builds the fused graph of the test problem over a matrix bound to
// a fresh cache with the given budget, not yet executed.
func oocGraph(t *testing.T, n, nb int, budget int64) (*runtime.Graph, *Matrix, *SpillCache) {
	t.Helper()
	k, pts := genTestSetup(t, n)
	m := NewMatrix(n, nb, 1e-7)
	spec := &GenSpec{K: k, Pts: pts, Metric: geom.Euclidean, Nugget: 1e-9, Comp: CompressSVD}
	g := BuildGenCholeskyGraph(m, spec, true)
	c, err := NewSpillCache(t.TempDir(), budget)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	c.Bind(m)
	return g, m, c
}

// outstandingPins is the number of pins the cache holds.
func outstandingPins(c *SpillCache) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	var pins int
	for _, row := range c.recs {
		for _, r := range row {
			pins += r.pins
		}
	}
	return pins
}

// refFactor is the plain in-memory reference factorization.
func refFactor(t *testing.T, n, nb int) *Matrix {
	t.Helper()
	k, pts := genTestSetup(t, n)
	m := NewMatrix(n, nb, 1e-7)
	spec := &GenSpec{K: k, Pts: pts, Metric: geom.Euclidean, Nugget: 1e-9, Comp: CompressSVD}
	if err := GenCholesky(m, spec, 1); err != nil {
		t.Fatal(err)
	}
	return m
}

// assertFactorsMatch compares logdet and a full solve bitwise. Comparing
// through the solve (rather than tile by tile) also exercises the pinned
// solve paths against spilled tiles.
func assertFactorsMatch(t *testing.T, label string, got, want *Matrix) {
	t.Helper()
	if ld, ldRef := got.LogDet(), want.LogDet(); ld != ldRef {
		t.Fatalf("%s: logdet %v != reference %v", label, ld, ldRef)
	}
	rhs := make([]float64, want.N)
	for i := range rhs {
		rhs[i] = float64(i%17) - 8
	}
	x := append([]float64(nil), rhs...)
	xRef := append([]float64(nil), rhs...)
	solveVec(got, x)
	solveVec(want, xRef)
	for i := range x {
		if x[i] != xRef[i] {
			t.Fatalf("%s: solve differs at %d: %v != %v", label, i, x[i], xRef[i])
		}
	}
}

// A budget a fraction of the matrix forces evictions mid-factorization;
// the result must match the in-memory factorization bitwise, and the
// resident high-water must stay near the budget (soft overshoot is bounded
// by the in-flight working set).
func TestOOCCholeskyBitwiseUnderBudget(t *testing.T) {
	const n, nb = 400, 50
	ref := refFactor(t, n, nb)
	full := ref.Bytes()
	budget := full / 4
	m, c := oocFactor(t, n, nb, budget, 1)
	if c.HighWater() > budget+MinMemBudget(nb, 1) {
		t.Fatalf("high water %d exceeds budget %d plus working set %d",
			c.HighWater(), budget, MinMemBudget(nb, 1))
	}
	if c.SpillSize() == 0 {
		t.Fatal("no bytes ever spilled: budget had no effect")
	}
	assertFactorsMatch(t, "budget=quarter", m, ref)
	// Rank statistics must be readable while tiles are spilled.
	maxR, meanR := m.RankStats()
	maxRef, meanRef := ref.RankStats()
	if maxR != maxRef || meanR != meanRef {
		t.Fatalf("rank stats differ: (%d,%v) vs (%d,%v)", maxR, meanR, maxRef, meanRef)
	}
	if m.Bytes() != ref.Bytes() {
		t.Fatalf("logical bytes differ: %d vs %d", m.Bytes(), ref.Bytes())
	}
}

func TestOOCWorkerInvariance(t *testing.T) {
	const n, nb = 300, 50
	ref := refFactor(t, n, nb)
	for _, workers := range []int{1, 2, 4} {
		m, _ := oocFactor(t, n, nb, ref.Bytes()/3, workers)
		assertFactorsMatch(t, "workers", m, ref)
	}
}

// Eviction under retry: chaos-injected task panics abort the graph while the
// budget forces evictions, so a re-execution starts from whatever mix of
// resident, spilled and half-updated tiles the abort left. Every abort must
// release its pins and leave the cache error-free, and re-executing until the
// victims are spent must end bitwise-identical to the clean in-memory run at
// every worker count.
func TestOOCEvictionUnderRetry(t *testing.T) {
	const n, nb = 300, 50
	ref := refFactor(t, n, nb)
	for _, workers := range []int{1, 2, 4} {
		for _, seed := range []uint64{1, 99} {
			inj := chaos.NewInjector(&chaos.FaultPlan{Seed: seed, TaskPanics: 5})
			g, m, c := oocGraph(t, n, nb, ref.Bytes()/4)
			opt := runtime.ExecOptions{Workers: workers, Inject: inj.TaskHook}
			aborts := 0
			for {
				err := g.Execute(opt)
				if serr := c.Err(); serr != nil {
					t.Fatalf("seed %d: cache error after %d aborts: %v", seed, aborts, serr)
				}
				if got := outstandingPins(c); got != 0 {
					t.Fatalf("seed %d: %d pins outlived the execution that took them", seed, got)
				}
				if err == nil {
					break
				}
				if !errors.Is(err, chaos.ErrInjected) {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if aborts++; aborts > 5 {
					t.Fatalf("seed %d: still failing after %d aborts", seed, aborts)
				}
			}
			if aborts == 0 || inj.Stats().TaskPanics != 5 {
				t.Fatalf("seed %d: %d aborts, %d panics injected, want all 5 victims spent", seed, aborts, inj.Stats().TaskPanics)
			}
			if c.SpillSize() == 0 {
				t.Fatalf("seed %d: nothing spilled", seed)
			}
			assertFactorsMatch(t, "chaos", m, ref)
		}
	}
}

// A second execution of the same bound graph (the optimizer-iteration
// reuse path) must regenerate and refactor correctly with tiles still
// spilled from the first run.
func TestOOCGraphReuse(t *testing.T) {
	const n, nb = 300, 50
	ref := refFactor(t, n, nb)
	g, m, c := oocGraph(t, n, nb, ref.Bytes()/4)
	for pass := 0; pass < 2; pass++ {
		if err := g.Execute(runtime.ExecOptions{Workers: 2}); err != nil {
			t.Fatalf("pass %d: %v", pass, err)
		}
		if err := c.Err(); err != nil {
			t.Fatalf("pass %d: %v", pass, err)
		}
		assertFactorsMatch(t, "reuse", m, ref)
	}
}

// codecTiles is one tile of every kind the codec carries.
func codecTiles(t testing.TB) []struct {
	name string
	tile *CompTile
} {
	ragged := covTile(t, 10, 16, 0.6) // last tile row of a ragged tiling
	zero := CompressSVD(la.NewMat(12, 12), 1e-7, 0, 0)
	if zero.Rank() != 0 {
		t.Fatalf("zero tile compressed to rank %d", zero.Rank())
	}
	return []struct {
		name string
		tile *CompTile
	}{
		{"rank 0", zero},
		{"rank k", CompressSVD(covTile(t, 16, 16, 0.6), 1e-7, 0, 0)},
		{"dense", NewDenseTile(covTile(t, 16, 16, 0.6))},
		{"ragged", CompressSVD(ragged, 1e-7, 0, 0)},
		{"ragged dense", NewDenseTile(ragged)},
	}
}

// The one tile codec, both ways it is used: the words a panel message ships
// decode into a fresh tile, and the same words spilled as bytes fill the
// empty slot an eviction leaves — shape, rank, footprint and every payload
// bit.
func TestCompTileCodecRoundTrip(t *testing.T) {
	for _, tc := range codecTiles(t) {
		want := tc.tile.Clone()
		rows, cols, rank, bytes := want.Rows(), want.Cols(), want.Rank(), want.Bytes()
		words := tc.tile.Encode()
		wireRank := float64(rank)
		if want.IsDense() {
			wireRank = -1
		}
		if int64(len(words)) != 3+bytes/8 || words[0] != float64(rows) || words[1] != float64(cols) || words[2] != wireRank {
			t.Fatalf("%s: %d words, header %v", tc.name, len(words), words[:3])
		}
		same := func(how string, got *CompTile) {
			t.Helper()
			if got.Rows() != rows || got.Cols() != cols || got.Rank() != rank || got.Bytes() != bytes || got.IsDense() != want.IsDense() {
				t.Fatalf("%s, %s: %dx%d rank %d, %d bytes, dense=%v", tc.name, how, got.Rows(), got.Cols(), got.Rank(), got.Bytes(), got.IsDense())
			}
			for p, w := range want.Encode() {
				if g := got.Encode()[p]; math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("%s, %s: word %d is %v, want %v", tc.name, how, p, g, w)
				}
			}
		}
		wire := new(CompTile)
		if err := wire.Decode(words); err != nil {
			t.Fatalf("%s, wire: %v", tc.name, err)
		}
		same("wire", wire)

		m := NewMatrix(rows+cols, cols, 0) // slot (1, 0) is rows×cols
		if err := m.DecodeTile(1, 0, bytesWords(wordBytes(words))); err != nil {
			t.Fatalf("%s, spill: %v", tc.name, err)
		}
		same("spill", m.Off(1, 0))

		// Words Encode cannot produce are refused and leave the tile alone.
		for how, bad := range map[string][]float64{
			"short payload":   words[:len(words)-min(1, len(words)-3)],
			"long payload":    append(append([]float64(nil), words...), 0),
			"no header":       words[:2],
			"fractional rows": append([]float64{words[0] + 0.5}, words[1:]...),
			"negative cols":   append([]float64{words[0], -words[1]}, words[2:]...),
			"rank too large":  append([]float64{words[0], words[1], float64(min(rows, cols) + 1)}, words[3:]...),
			"rank -2":         append([]float64{words[0], words[1], -2}, words[3:]...),
			"NaN rank":        append([]float64{words[0], words[1], math.NaN()}, words[3:]...),
			"huge rows":       append([]float64{1e300}, words[1:]...),
		} {
			if how == "short payload" && len(words) == 3 {
				continue // rank 0 has no payload to shorten
			}
			if err := wire.Decode(bad); err == nil {
				t.Fatalf("%s: %s decoded", tc.name, how)
			}
			same("after refused "+how, wire)
			if err := m.DecodeTile(1, 0, bad); err == nil {
				t.Fatalf("%s: %s decoded into the slot", tc.name, how)
			}
			same("slot after refused "+how, m.Off(1, 0))
		}
	}
}

// Decode on arbitrary words returns an error or a tile whose shape, rank and
// footprint agree with the payload it was given and whose every entry can be
// read; it never panics. The matrix codec around it (Matrix.DecodeTile, what
// a rank and the spill decode with) takes exactly di² words into a diagonal
// slot and exactly the tiles of its shape into an off-diagonal one; anything
// else is an error.
func FuzzCompTileDecode(f *testing.F) {
	for _, tc := range codecTiles(f) {
		words := tc.tile.Encode()
		f.Add(wordBytes(words))
		f.Add(wordBytes(words[:len(words)-len(words)/4]))
		words[2]++
		f.Add(wordBytes(words))
	}
	f.Add(wordBytes([]float64{1 << 31, 1 << 31, 1 << 30}))
	f.Add(wordBytes([]float64{4, 4, math.Inf(1), 0, 0}))
	for _, n := range []int{100, 99, 256, 257} { // the diagonal slots' sizes, and one off
		f.Add(wordBytes(make([]float64, n)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		words := bytesWords(data)
		m := NewMatrix(26, 16, 0) // diagonal slots 16×16 and a ragged 10×10
		for i := 0; i < m.MT; i++ {
			di := m.TileDim(i)
			if err := m.DecodeTile(i, i, words); (err == nil) != (len(words) == di*di) {
				t.Fatalf("diagonal slot %dx%d from %d words: error %v", di, di, len(words), err)
			} else if err == nil && len(m.EncodeTile(i, i)) != len(words) {
				t.Fatalf("diagonal slot %dx%d re-encoded to %d words from %d", di, di, len(m.EncodeTile(i, i)), len(words))
			}
		}
		c := new(CompTile)
		err := c.Decode(words)
		fits := err == nil && c.Rows() == m.TileDim(1) && c.Cols() == m.TileDim(0)
		if slotErr := m.DecodeTile(1, 0, append([]float64(nil), words...)); (slotErr == nil) != fits {
			t.Fatalf("off-diagonal slot %dx%d from %d words: error %v, tile error %v", m.TileDim(1), m.TileDim(0), len(words), slotErr, err)
		}
		if err != nil {
			if c.U != nil || c.V != nil || c.D != nil {
				t.Fatalf("refused words left a payload behind")
			}
			return
		}
		if c.Rows() < 0 || c.Cols() < 0 || c.Rank() < 0 || c.Rank() > min(c.Rows(), c.Cols()) {
			t.Fatalf("decoded %dx%d rank %d", c.Rows(), c.Cols(), c.Rank())
		}
		if c.Bytes() != int64(len(words)-3)*8 {
			t.Fatalf("%dx%d rank %d dense=%v: %d bytes from %d payload words", c.Rows(), c.Cols(), c.Rank(), c.IsDense(), c.Bytes(), len(words)-3)
		}
		back := c.Encode() // reads every entry through the factor views
		if len(back) != len(words) {
			t.Fatalf("re-encoded to %d words from %d", len(back), len(words))
		}
		for i, w := range words {
			// The header by value (−0 rows is 0 rows), the payload by bits.
			if back[i] != w && (i < 3 || math.Float64bits(back[i]) != math.Float64bits(w)) {
				t.Fatalf("word %d: %v re-encoded as %v", i, w, back[i])
			}
		}
	})
}
