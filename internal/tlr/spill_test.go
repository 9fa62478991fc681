package tlr

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/la"
	"repro/internal/runtime"
)

// cacheMatrix returns an mt×mt shell of nb×nb tiles bound to a fresh cache
// with the given budget: diagonal tile i holds i+1 in every entry, the
// off-diagonal slots are empty (they count nothing and are never evicted).
// A 4×4 diagonal tile is 128 bytes.
func cacheMatrix(t *testing.T, mt, nb int, budget int64) (*Matrix, *SpillCache) {
	t.Helper()
	m := NewMatrix(mt*nb, nb, 0)
	for i := range m.diag {
		m.diag[i] = la.NewMat(nb, nb)
		for k := range m.diag[i].Data {
			m.diag[i].Data[k] = float64(i + 1)
		}
	}
	c, err := NewSpillCache(t.TempDir(), budget)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	c.Bind(m)
	return m, c
}

// resident is the cache's resident byte count.
func resident(c *SpillCache) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.resident
}

func TestEvictAndReload(t *testing.T) {
	m, c := cacheMatrix(t, 4, 4, 256)
	// 512 resident > 256: a pin and unpin enforce the budget.
	m.pin(3, 3, pinRead)
	m.unpin(3, 3)
	if got := resident(c); got > 256 {
		t.Fatalf("resident %d exceeds the budget after eviction", got)
	}
	// The LRU tail (D0: bound first, never pinned) goes; the tile just used
	// stays.
	if m.diag[0] != nil {
		t.Fatal("LRU tail not evicted")
	}
	if m.diag[3] == nil {
		t.Fatal("most recently used tile evicted")
	}
	// A reload restores the tile exactly.
	m.pin(0, 0, pinRead)
	if d := m.diag[0]; d == nil || d.Rows != 4 || d.Data[0] != 1 || d.Data[15] != 1 {
		t.Fatalf("reload corrupted the tile: %v", d)
	}
	m.unpin(0, 0)
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestPinnedSlotsNeverEvicted(t *testing.T) {
	m, c := cacheMatrix(t, 2, 4, 200)
	m.pin(0, 0, pinUpdate)
	m.pin(1, 1, pinUpdate)
	// Both pinned: over budget, but nothing may go — the budget is soft.
	if m.diag[0] == nil || m.diag[1] == nil {
		t.Fatal("pinned tile evicted")
	}
	if got := resident(c); got != 256 {
		t.Fatalf("resident accounting: %d", got)
	}
	m.unpin(0, 0)
	m.unpin(1, 1)
	if got := resident(c); got > 200 {
		t.Fatalf("budget not enforced after unpin: %d", got)
	}
}

func TestOverwritePinSkipsLoad(t *testing.T) {
	m, c := cacheMatrix(t, 2, 4, 64)
	m.pin(1, 1, pinRead)
	m.unpin(1, 1) // evicts D0 (LRU tail), then D1
	if m.diag[0] != nil {
		t.Fatal("D0 should be evicted")
	}
	spilled := c.SpillSize()
	// An overwrite pin gives an empty tile without reading the spill.
	m.pin(0, 0, pinOverwrite)
	d := m.diag[0]
	if d == nil || d.Rows != 4 || d.Cols != 4 {
		t.Fatal("overwrite pin left no tile")
	}
	if d.Data[0] != 0 {
		t.Fatal("overwrite pin read the old contents")
	}
	for k := range d.Data {
		d.Data[k] = 42
	}
	m.unpin(0, 0)
	// The overwritten tile is dirty: its eviction wrote it again.
	if m.diag[0] != nil {
		t.Fatal("D0 should be evicted again")
	}
	m.pin(0, 0, pinRead)
	if m.diag[0].Data[0] != 42 {
		t.Fatal("dirty tile lost on eviction")
	}
	m.unpin(0, 0)
	if c.SpillSize() < spilled {
		t.Fatal("spill file shrank")
	}
}

func TestCleanEvictionSkipsRewrite(t *testing.T) {
	// One tile larger than the whole budget: it goes on every unpin, so the
	// spill writes show in the counter alone.
	m, _ := cacheMatrix(t, 1, 4, 64)
	before := cntSpillBytes.Value()
	m.pin(0, 0, pinRead)
	m.unpin(0, 0) // first eviction: no spilled copy yet, writes 128 bytes
	if m.diag[0] != nil {
		t.Fatal("oversized tile must go on unpin")
	}
	if delta := cntSpillBytes.Value() - before; delta != 128 {
		t.Fatalf("first eviction wrote %d bytes, want 128", delta)
	}
	// A read pin reloads; the spilled copy is current, so no rewrite.
	m.pin(0, 0, pinRead)
	if m.diag[0] == nil || m.diag[0].Data[0] != 1 {
		t.Fatal("reload corrupted the tile")
	}
	m.unpin(0, 0)
	if delta := cntSpillBytes.Value() - before; delta != 128 {
		t.Fatalf("clean eviction rewrote bytes: total %d, want 128", delta)
	}
	// An update pin dirties it: the next eviction rewrites.
	m.pin(0, 0, pinUpdate)
	m.unpin(0, 0)
	if delta := cntSpillBytes.Value() - before; delta != 256 {
		t.Fatalf("dirty eviction wrote %d total bytes, want 256", delta)
	}
}

func TestFootprintRefreshOnUnpin(t *testing.T) {
	m, c := cacheMatrix(t, 2, 4, 1<<20)
	m.pin(1, 0, pinUpdate)
	// The kernel replaces the empty tile with a rank-2 one.
	m.off[1][0] = &CompTile{U: la.NewMat(4, 2), V: la.NewMat(4, 2)}
	m.unpin(1, 0)
	if got := resident(c); got != 256+128 {
		t.Fatalf("resident not refreshed: %d", got)
	}
	if c.HighWater() < 256+128 {
		t.Fatalf("high water not tracked: %d", c.HighWater())
	}
}

func TestConcurrentPinUnpin(t *testing.T) {
	const tiles = 16
	m, c := cacheMatrix(t, tiles, 4, 512)
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < 200; it++ {
				i := (g*31 + it*7) % tiles
				m.pin(i, i, pinRead)
				if got := m.diag[i].Data[5]; got != float64(i+1) {
					errs <- fmt.Sprintf("tile %d corrupted: %v", i, got)
				}
				m.unpin(i, i)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestUnbalancedUnpinPanics(t *testing.T) {
	m, _ := cacheMatrix(t, 1, 4, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("unbalanced unpin must panic")
		}
	}()
	m.unpin(0, 0)
}

// A spilled copy the tile codec refuses is reported by Err like a failed
// read, and the slot is filled empty so the pin still balances.
func TestDecodeErrorReported(t *testing.T) {
	m, c := cacheMatrix(t, 2, 4, 128)
	m.pin(1, 1, pinRead) // 256 resident > 128: evicts D0
	m.unpin(1, 1)
	if m.diag[0] != nil {
		t.Fatal("D0 not evicted")
	}
	// three words where a 4×4 tile needs sixteen
	r := c.recs[0][0]
	region, err := c.blob.Put(wordBytes(make([]float64, 3)), r.region)
	if err != nil {
		t.Fatal(err)
	}
	r.region = region
	m.pin(0, 0, pinRead)
	m.unpin(0, 0)
	if err := c.Err(); err == nil || !strings.Contains(err.Error(), "load tile (0,0): tlr: decode diagonal tile 0: 3 words") {
		t.Fatalf("Err() = %v, want the decode error for D0", err)
	}
	if d := m.diag[0]; d == nil || d.Rows != 4 || d.Data[0] != 0 {
		t.Fatalf("refused tile not filled empty: %v", d)
	}
}

// A tile pinned only for reading stays clean: over a budgeted generate and
// factor run, no tile is written to the spill file more often than a task
// of the graph writes it (its generation, and each kernel that updates it).
func TestReadPinsDoNotRespill(t *testing.T) {
	const n, nb = 300, 50
	g, m, c := oocGraph(t, n, nb, MinMemBudget(nb, 1))
	if err := g.Execute(runtime.ExecOptions{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	updates := map[[2]int]int{}
	for _, task := range g.Tasks() {
		for _, a := range task.Accesses {
			if a.Mode != runtime.Read {
				i, j := m.TileOf(a.Handle)
				updates[[2]int{i, j}]++
			}
		}
	}
	var writes int
	for i, row := range c.recs {
		for j, r := range row {
			writes += r.writes
			if u := updates[[2]int{i, j}]; r.writes > u {
				t.Errorf("tile (%d,%d) written to the spill file %d times, updated by %d tasks", i, j, r.writes, u)
			}
		}
	}
	if writes == 0 {
		t.Fatal("nothing spilled: the budget had no effect")
	}
}
