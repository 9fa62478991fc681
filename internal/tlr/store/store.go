// Package store implements the memory-bounded out-of-core tile store: a
// refcount-pinned LRU cache over opaque payload slots, spilling evicted
// payloads to a dataio.BlobFile and reloading them on demand.
//
// The store does not own payloads — callers register a Slot per logical
// payload (one per TLR tile) with closures that measure, serialize,
// deserialize, drop and materialize it in place. The executor pins every
// handle a task touches for the duration of the task (see
// runtime.Handle.PinFn), the solve paths pin tiles around each access, and
// the store keeps the sum of resident payload bytes at or under Budget by
// evicting unpinned slots in least-recently-used order.
//
// The budget is soft: a pin never blocks and never fails, so the true peak
// is Budget plus the working set of the tasks in flight (a handful of
// tiles per worker). Spill I/O errors never panic mid-task — the slot
// stays resident (exceeding the budget) or is materialized empty, and the
// first error is reported by Err for the caller to surface after the graph
// run.
package store

import (
	"container/list"
	"fmt"
	"sync"

	"repro/internal/dataio"
	"repro/internal/obs"
)

// Eviction counters: hit = pin of a resident payload, miss = pin that had
// to load (or materialize) a non-resident one, evict = payloads dropped to
// honor the budget, spill.bytes = total bytes written to the spill file.
var (
	cntHit        = obs.GetCounter("tlr.store.hit")
	cntMiss       = obs.GetCounter("tlr.store.miss")
	cntEvict      = obs.GetCounter("tlr.store.evict")
	cntSpillBytes = obs.GetCounter("tlr.store.spill.bytes")
)

// PinMode tells the store what the pinner will do to the payload, which
// decides both whether spilled bytes must be loaded and whether the slot
// must be re-spilled on its next eviction.
type PinMode int

const (
	// PinRead: payload is only read. Loads on miss; a clean slot whose
	// spilled bytes are current can later evict without rewriting them.
	PinRead PinMode = iota
	// PinUpdate: payload is read and may be mutated. Loads on miss and
	// marks the slot dirty.
	PinUpdate
	// PinOverwrite: payload is fully rewritten without reading the old
	// contents. On miss the store materializes an empty payload instead of
	// reading spilled bytes back from disk; marks the slot dirty.
	PinOverwrite
)

// SlotFuncs are the payload callbacks a slot is registered with. All five
// are invoked with the store lock held, serialized against every other
// slot operation; they must touch only their own payload.
type SlotFuncs struct {
	// Bytes measures the current resident footprint of the payload.
	Bytes func() int64
	// Encode serializes the payload for spilling.
	Encode func() []byte
	// Decode rebuilds the payload in place from spilled bytes; on an error
	// the payload is left as Drop left it.
	Decode func([]byte) error
	// Drop releases the payload's memory, leaving enough stub metadata
	// behind for size/rank accounting while non-resident.
	Drop func()
	// Materialize allocates an empty payload in place (an overwrite pin of
	// a non-resident slot; contents are about to be fully rewritten).
	Materialize func()
}

// Slot is one registered payload. The zero value is invalid; use
// Store.Register.
type Slot struct {
	name     string
	fns      SlotFuncs
	elem     *list.Element
	pins     int
	bytes    int64
	resident bool
	dirty    bool
	region   dataio.Region
}

// Store is the memory-bounded payload cache. All methods are safe for
// concurrent use.
type Store struct {
	mu        sync.Mutex
	budget    int64
	blob      *dataio.BlobFile
	ownBlob   bool
	lru       *list.List // front = most recently used
	slots     []*Slot
	resident  int64
	highWater int64
	err       error
}

// New builds a store with the given soft budget (bytes) over an existing
// blob file. The caller keeps ownership of blob.
func New(blob *dataio.BlobFile, budget int64) *Store {
	return &Store{budget: budget, blob: blob, lru: list.New()}
}

// NewTemp builds a store over a fresh anonymous spill file in dir (or the
// default temp dir when dir is ""). Close releases the file; because it is
// unlinked at creation, a crashed process cannot leak it either.
func NewTemp(dir string, budget int64) (*Store, error) {
	blob, err := dataio.NewBlobFile(dir)
	if err != nil {
		return nil, err
	}
	s := New(blob, budget)
	s.ownBlob = true
	return s, nil
}

// Register adds a slot for one payload, initially resident with its
// current footprint.
func (st *Store) Register(name string, fns SlotFuncs) *Slot {
	s := &Slot{name: name, fns: fns, resident: true, bytes: fns.Bytes()}
	st.mu.Lock()
	s.elem = st.lru.PushFront(s)
	st.slots = append(st.slots, s)
	st.resident += s.bytes
	if st.resident > st.highWater {
		st.highWater = st.resident
	}
	st.mu.Unlock()
	return s
}

// Pin makes the slot's payload resident and protects it from eviction
// until the matching Unpin. Pins nest: concurrent readers of one tile each
// pin it. Pin never fails; a spill that cannot be read or decoded leaves an
// empty payload and is reported by Err.
func (st *Store) Pin(s *Slot, mode PinMode) {
	st.mu.Lock()
	defer st.mu.Unlock()
	s.pins++
	if mode != PinRead {
		s.dirty = true
	}
	if s.resident {
		cntHit.Inc()
	} else {
		cntMiss.Inc()
		if mode != PinOverwrite && s.region.Valid() {
			buf, err := st.blob.Get(s.region)
			if err == nil {
				err = s.fns.Decode(buf)
			}
			if err != nil {
				st.fail(fmt.Errorf("store: load %s: %w", s.name, err))
				s.fns.Materialize()
			}
		} else {
			// Overwrite pin, or a slot evicted before ever holding data.
			s.fns.Materialize()
		}
		s.resident = true
		st.addBytes(s, s.fns.Bytes())
	}
	st.lru.MoveToFront(s.elem)
	st.evictLocked()
}

// Unpin releases one pin, refreshes the slot's footprint (tasks change
// tile ranks in place) and enforces the budget.
func (st *Store) Unpin(s *Slot) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if s.pins <= 0 {
		panic(fmt.Sprintf("store: unbalanced unpin of %s", s.name))
	}
	s.pins--
	st.addBytes(s, s.fns.Bytes())
	st.evictLocked()
}

// addBytes updates the slot's accounted footprint to nb.
func (st *Store) addBytes(s *Slot, nb int64) {
	st.resident += nb - s.bytes
	s.bytes = nb
	if st.resident > st.highWater {
		st.highWater = st.resident
	}
}

// evictLocked spills unpinned slots from the LRU tail until the resident
// set fits the budget (or nothing evictable remains — the budget is soft).
func (st *Store) evictLocked() {
	if st.budget <= 0 {
		return
	}
	for st.resident > st.budget {
		var victim *Slot
		for e := st.lru.Back(); e != nil; e = e.Prev() {
			s := e.Value.(*Slot)
			if s.pins == 0 && s.resident && s.bytes > 0 {
				victim = s
				break
			}
		}
		if victim == nil || !st.spillLocked(victim) {
			return
		}
	}
}

// spillLocked writes the slot's payload to the blob file (skipped when the
// spilled copy is already current) and drops it from memory. Returns false
// on a write error, leaving the slot resident.
func (st *Store) spillLocked(s *Slot) bool {
	if s.dirty || !s.region.Valid() {
		buf := s.fns.Encode()
		r, err := st.blob.Put(buf, s.region)
		if err != nil {
			st.fail(fmt.Errorf("store: spill %s: %w", s.name, err))
			return false
		}
		s.region = r
		s.dirty = false
		cntSpillBytes.Add(int64(len(buf)))
	}
	s.fns.Drop()
	s.resident = false
	st.resident -= s.bytes
	s.bytes = 0 // re-pin re-adds the full footprint via addBytes
	cntEvict.Inc()
	return true
}

// fail records the first spill I/O error.
func (st *Store) fail(err error) {
	if st.err == nil {
		st.err = err
	}
}

// Err returns the first spill I/O error, if any. Callers check it after a
// graph run: a load error means payload contents were replaced by zeros
// and the computation must be discarded.
func (st *Store) Err() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.err
}

// Resident returns the currently accounted resident bytes.
func (st *Store) Resident() int64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.resident
}

// HighWater returns the maximum resident bytes ever accounted — the
// store's contribution to peak RSS, compared against Budget in the
// out-of-core benchmark.
func (st *Store) HighWater() int64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.highWater
}

// Budget returns the configured soft budget in bytes.
func (st *Store) Budget() int64 { return st.budget }

// SpillSize returns the current size of the spill file in bytes.
func (st *Store) SpillSize() int64 { return st.blob.Size() }

// Close releases the spill file if the store owns it.
func (st *Store) Close() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if !st.ownBlob || st.blob == nil {
		return nil
	}
	err := st.blob.Close()
	st.blob = nil
	return err
}
