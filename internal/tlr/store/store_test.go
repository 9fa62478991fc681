package store

import (
	"encoding/binary"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// fakePayload is an in-memory payload with full spill support.
type fakePayload struct {
	data []byte // nil = dropped
	size int    // logical size, survives drops
}

func (p *fakePayload) slotFuncs() SlotFuncs {
	return SlotFuncs{
		Bytes: func() int64 {
			if p.data == nil {
				return 0
			}
			return int64(len(p.data))
		},
		Encode: func() []byte { return append([]byte(nil), p.data...) },
		Decode: func(b []byte) error { p.data = append([]byte(nil), b...); p.size = len(b); return nil },
		Drop:   func() { p.data = nil },
		Materialize: func() {
			p.data = make([]byte, p.size)
		},
	}
}

func newPayload(size int, fill byte) *fakePayload {
	p := &fakePayload{data: make([]byte, size), size: size}
	for i := range p.data {
		p.data[i] = fill
	}
	return p
}

func mustStore(t *testing.T, budget int64) *Store {
	t.Helper()
	st, err := NewTemp(t.TempDir(), budget)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

func TestEvictAndReload(t *testing.T) {
	st := mustStore(t, 256)
	var pays []*fakePayload
	var slots []*Slot
	for i := 0; i < 4; i++ {
		p := newPayload(128, byte(i+1))
		pays = append(pays, p)
		slots = append(slots, st.Register(fmt.Sprintf("p%d", i), p.slotFuncs()))
	}
	// 512 resident > 256 budget: pin/unpin one slot to trigger eviction.
	st.Pin(slots[3], PinRead)
	st.Unpin(slots[3])
	if got := st.Resident(); got > 256 {
		t.Fatalf("resident %d exceeds budget after eviction", got)
	}
	// The LRU tail (p0: registered first, never pinned) must be evicted,
	// the just-used p3 must survive.
	if pays[0].data != nil {
		t.Fatal("LRU tail not evicted")
	}
	if pays[3].data == nil {
		t.Fatal("most recently used slot evicted")
	}
	// Reloading an evicted slot restores its bytes exactly.
	st.Pin(slots[0], PinRead)
	if len(pays[0].data) != 128 || pays[0].data[0] != 1 {
		t.Fatalf("reload corrupted payload: %v", pays[0].data[:4])
	}
	st.Unpin(slots[0])
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestPinnedSlotsNeverEvicted(t *testing.T) {
	st := mustStore(t, 100)
	p1 := newPayload(80, 1)
	p2 := newPayload(80, 2)
	s1 := st.Register("p1", p1.slotFuncs())
	s2 := st.Register("p2", p2.slotFuncs())
	st.Pin(s1, PinUpdate)
	st.Pin(s2, PinUpdate)
	// Both pinned: budget exceeded but nothing evictable — soft budget.
	if p1.data == nil || p2.data == nil {
		t.Fatal("pinned payload evicted")
	}
	if st.Resident() != 160 {
		t.Fatalf("resident accounting: %d", st.Resident())
	}
	st.Unpin(s1)
	st.Unpin(s2)
	if st.Resident() > 100 {
		t.Fatalf("budget not enforced after unpin: %d", st.Resident())
	}
}

func TestOverwritePinSkipsLoad(t *testing.T) {
	st := mustStore(t, 64)
	p := newPayload(128, 7)
	s := st.Register("p", p.slotFuncs())
	q := newPayload(128, 9)
	sq := st.Register("q", q.slotFuncs())
	st.Pin(sq, PinRead)
	st.Unpin(sq) // evicts p (LRU tail)
	if p.data != nil {
		t.Fatal("p should be evicted")
	}
	spilled := st.SpillSize()
	// Overwrite pin materializes an empty payload without touching disk.
	st.Pin(s, PinOverwrite)
	if p.data == nil || len(p.data) != 128 {
		t.Fatal("overwrite pin did not materialize")
	}
	if p.data[0] != 0 {
		t.Fatal("overwrite pin loaded old contents")
	}
	for i := range p.data {
		p.data[i] = 42
	}
	st.Unpin(s)
	// The dirty overwrite must be re-spilled on its next eviction.
	st.Pin(sq, PinRead)
	st.Unpin(sq)
	if p.data != nil {
		// p evicted again
		st.Pin(s, PinRead)
		if p.data[0] != 42 {
			t.Fatal("dirty payload lost on re-eviction")
		}
		st.Unpin(s)
	}
	if st.SpillSize() < spilled {
		t.Fatal("spill file shrank")
	}
}

func TestCleanEvictionSkipsRewrite(t *testing.T) {
	// One slot larger than the whole budget: it evicts on every unpin, so
	// the spill-write behavior is isolated in the counter deltas.
	st := mustStore(t, 64)
	p := newPayload(128, 3)
	s := st.Register("p", p.slotFuncs())
	before := cntSpillBytes.Value()
	st.Pin(s, PinRead)
	st.Unpin(s) // first eviction: no spilled copy yet, writes 128 bytes
	if p.data != nil {
		t.Fatal("oversized slot must evict on unpin")
	}
	if delta := cntSpillBytes.Value() - before; delta != 128 {
		t.Fatalf("first eviction wrote %d bytes, want 128", delta)
	}
	// Read-only reload + evict: the spilled copy is current, no rewrite.
	st.Pin(s, PinRead)
	if p.data == nil || p.data[0] != 3 {
		t.Fatal("reload corrupted payload")
	}
	st.Unpin(s)
	if delta := cntSpillBytes.Value() - before; delta != 128 {
		t.Fatalf("clean eviction rewrote bytes: total %d, want 128", delta)
	}
	// An update pin marks dirty: the next eviction rewrites.
	st.Pin(s, PinUpdate)
	st.Unpin(s)
	if delta := cntSpillBytes.Value() - before; delta != 256 {
		t.Fatalf("dirty eviction wrote %d total bytes, want 256", delta)
	}
}

func TestFootprintRefreshOnUnpin(t *testing.T) {
	st := mustStore(t, 1<<20)
	p := newPayload(64, 1)
	s := st.Register("p", p.slotFuncs())
	st.Pin(s, PinUpdate)
	// Task grows the payload in place (a tile's rank grew).
	p.data = make([]byte, 256)
	p.size = 256
	st.Unpin(s)
	if st.Resident() != 256 {
		t.Fatalf("resident not refreshed: %d", st.Resident())
	}
	if st.HighWater() < 256 {
		t.Fatalf("high water not tracked: %d", st.HighWater())
	}
}

func TestConcurrentPinUnpin(t *testing.T) {
	st := mustStore(t, 512)
	const nSlots = 16
	pays := make([]*fakePayload, nSlots)
	slots := make([]*Slot, nSlots)
	for i := range slots {
		pays[i] = newPayload(64, byte(i+1))
		// stamp a recognizable pattern
		w := pays[i].data
		binary.LittleEndian.PutUint64(w, uint64(i)*0x0101010101010101)
		slots[i] = st.Register(fmt.Sprintf("s%d", i), pays[i].slotFuncs())
	}
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < 200; it++ {
				i := (g*31 + it*7) % nSlots
				st.Pin(slots[i], PinRead)
				if got := binary.LittleEndian.Uint64(pays[i].data); got != uint64(i)*0x0101010101010101 {
					errs <- fmt.Sprintf("slot %d corrupted: %x", i, got)
				}
				st.Unpin(slots[i])
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestUnbalancedUnpinPanics(t *testing.T) {
	st := mustStore(t, 0)
	p := newPayload(8, 1)
	s := st.Register("p", p.slotFuncs())
	defer func() {
		if recover() == nil {
			t.Fatal("unbalanced unpin must panic")
		}
	}()
	st.Unpin(s)
}

// A spill the payload's Decode refuses is reported by Err like a failed
// read, and the slot is materialized empty so the pin still balances.
func TestDecodeErrorReported(t *testing.T) {
	st := mustStore(t, 128)
	p, q := newPayload(128, 1), newPayload(128, 2)
	fns := p.slotFuncs()
	fns.Decode = func([]byte) error { return fmt.Errorf("corrupt") }
	sp, sq := st.Register("p", fns), st.Register("q", q.slotFuncs())
	st.Pin(sq, PinRead) // 256 resident > 128: evicts p
	st.Unpin(sq)
	if p.data != nil {
		t.Fatal("p not evicted")
	}
	st.Pin(sp, PinRead)
	st.Unpin(sp)
	if err := st.Err(); err == nil || !strings.Contains(err.Error(), "load p: corrupt") {
		t.Fatalf("Err() = %v, want the decode error for p", err)
	}
	if len(p.data) != 128 {
		t.Fatalf("refused slot not materialized: %d bytes", len(p.data))
	}
}
