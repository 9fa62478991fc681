// Out-of-core execution: a SpillCache bound to a Matrix keeps its resident
// tile bytes under a soft budget, evicting unpinned tiles in LRU order to an
// unlinked spill file and reading them back when next pinned. Every tile
// access goes through one bracket, m.pin(i, j, mode) and its unpin, which
// says what the access does: generation overwrites, the Cholesky kernels
// read their operands and update their target, the solves, LogDet and
// ToDense read. A tile pinned only for reading stays clean, so evicting it
// again writes nothing. Without a cache the bracket is a nil check.
//
// A pin never blocks or fails and a pinned tile is never evicted, so the
// peak is the budget plus the working set in flight (MinMemBudget). Spill
// I/O errors never panic mid-task: the tile stays resident or comes back
// empty, and Err reports the first for the caller to check after the run.
package tlr

import (
	"container/list"
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"repro/internal/dataio"
	"repro/internal/la"
	"repro/internal/obs"
)

// Cache counters: hit = pin of a resident tile, miss = pin of an evicted
// one, evict = tiles dropped to honor the budget, spill.bytes = bytes
// written to the spill file.
var (
	cntHit        = obs.GetCounter("tlr.store.hit")
	cntMiss       = obs.GetCounter("tlr.store.miss")
	cntEvict      = obs.GetCounter("tlr.store.evict")
	cntSpillBytes = obs.GetCounter("tlr.store.spill.bytes")
)

// pinMode is what the pinner does to the tile: it decides whether an
// evicted tile is read back and whether the spilled copy goes stale.
type pinMode int

const (
	pinRead      pinMode = iota // read back on a miss; the tile stays clean
	pinUpdate                   // read back on a miss; the tile turns dirty
	pinOverwrite                // nothing read back; the tile turns dirty
)

// tileRec is the cache's record of tile (i, j). bytes is its footprint,
// counted in the resident total while it is resident; bytes and rank answer
// Matrix.Bytes and RankSums while it is evicted.
type tileRec struct {
	i, j            int
	elem            *list.Element
	pins            int
	resident, dirty bool // dirty: the spilled copy, if any, is stale
	region          dataio.Region
	bytes           int64
	rank            int
	writes          int // times written to the spill file
}

// SpillCache is the out-of-core tile cache of one Matrix. All methods are
// safe for concurrent use.
type SpillCache struct {
	mu        sync.Mutex
	m         *Matrix
	budget    int64
	blob      *dataio.BlobFile
	lru       *list.List // of *tileRec, front = most recently used
	recs      [][]*tileRec
	resident  int64
	highWater int64
	err       error
}

// NewSpillCache opens a cache with a soft budget in bytes over a fresh
// spill file in dir ("" = the OS temp dir). The file is unlinked at
// creation, so it cannot outlive the process; Close releases it.
func NewSpillCache(dir string, budget int64) (*SpillCache, error) {
	blob, err := dataio.NewBlobFile(dir)
	if err != nil {
		return nil, err
	}
	return &SpillCache{budget: budget, blob: blob, lru: list.New()}, nil
}

// Bind makes c the cache of m's tiles, each resident as it is now. Call it
// once, before m is generated; the binding lasts as long as m, and from then
// on the budget bounds m's graph executions and solves alike.
func (c *SpillCache) Bind(m *Matrix) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m = m
	c.recs = make([][]*tileRec, m.MT)
	add := func(i, j int) {
		r := &tileRec{i: i, j: j, resident: true}
		r.elem = c.lru.PushFront(r)
		c.recs[i][j] = r
		c.measure(r)
	}
	for i := range c.recs {
		c.recs[i] = make([]*tileRec, i+1)
		add(i, i)
		for j := 0; j < i; j++ {
			add(i, j)
		}
	}
	m.spill = c
}

// pin makes tile (i, j) resident and keeps it so until the matching unpin.
// Pins nest: concurrent readers of one tile each pin it.
func (c *SpillCache) pin(i, j int, mode pinMode) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r := c.recs[i][j]
	r.pins++
	if mode != pinRead {
		r.dirty = true
	}
	if r.resident {
		cntHit.Inc()
	} else {
		cntMiss.Inc()
		c.load(r, mode)
		r.resident = true
		c.resident += r.bytes
		c.measure(r)
	}
	c.lru.MoveToFront(r.elem)
	c.evict()
}

// unpin releases one pin, recounts the tile's footprint (a kernel changes a
// tile's rank) and enforces the budget.
func (c *SpillCache) unpin(i, j int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r := c.recs[i][j]
	if r.pins <= 0 {
		panic(fmt.Sprintf("tlr: unbalanced unpin of tile (%d,%d)", i, j))
	}
	r.pins--
	c.measure(r)
	c.evict()
}

// load puts r's evicted tile back in its slot: the spilled copy, unless the
// pin overwrites it. A slot about to be overwritten, or whose copy cannot be
// read or decoded (reported), is filled empty: zeros on the diagonal, so the
// buffer counts from the pin on, and rank 0 off it.
func (c *SpillCache) load(r *tileRec, mode pinMode) {
	if mode != pinOverwrite {
		buf, err := c.blob.Get(r.region)
		if err == nil {
			err = c.m.DecodeTile(r.i, r.j, bytesWords(buf))
		}
		if err == nil {
			return
		}
		c.fail(fmt.Errorf("tlr: load tile (%d,%d): %w", r.i, r.j, err))
	}
	di, dj := c.m.TileDim(r.i), c.m.TileDim(r.j)
	if r.i == r.j {
		c.m.diag[r.i] = la.NewMat(di, di)
	} else {
		c.m.off[r.i][r.j] = &CompTile{U: la.NewMat(di, 0), V: la.NewMat(dj, 0)}
	}
}

// measure recounts r's resident footprint from its slot.
func (c *SpillCache) measure(r *tileRec) {
	var b int64
	if r.i == r.j {
		if c.m.diag[r.i] != nil {
			d := int64(c.m.TileDim(r.i))
			b = d * d * 8
		}
	} else if t := c.m.off[r.i][r.j]; t != nil {
		b = t.Bytes()
	}
	c.resident += b - r.bytes
	r.bytes = b
	c.highWater = max(c.highWater, c.resident)
}

// evict spills unpinned tiles from the LRU tail until the resident bytes
// fit the budget, or nothing evictable is left (the budget is soft).
func (c *SpillCache) evict() {
	for c.budget > 0 && c.resident > c.budget {
		var victim *tileRec
		for e := c.lru.Back(); e != nil; e = e.Prev() {
			if r := e.Value.(*tileRec); r.pins == 0 && r.resident && r.bytes > 0 {
				victim = r
				break
			}
		}
		if victim == nil || !c.spill(victim) {
			return
		}
	}
}

// spill writes r's tile to the spill file, unless the copy there is
// current, and empties its slot. It returns false on a write error, leaving
// the tile resident.
func (c *SpillCache) spill(r *tileRec) bool {
	if r.dirty || !r.region.Valid() {
		buf := wordBytes(c.m.EncodeTile(r.i, r.j))
		region, err := c.blob.Put(buf, r.region)
		if err != nil {
			c.fail(fmt.Errorf("tlr: spill tile (%d,%d): %w", r.i, r.j, err))
			return false
		}
		r.region, r.dirty = region, false
		r.writes++
		cntSpillBytes.Add(int64(len(buf)))
	}
	if r.i != r.j {
		r.rank = c.m.off[r.i][r.j].Rank()
	}
	c.m.ClearTile(r.i, r.j)
	r.resident = false
	c.resident -= r.bytes
	cntEvict.Inc()
	return true
}

// fail records the first spill I/O error.
func (c *SpillCache) fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

// Err returns the first spill I/O error, if any. Check it after a run: a
// tile that could not be read back was replaced by an empty one, and what
// was computed from it must be discarded.
func (c *SpillCache) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// HighWater returns the most tile bytes ever resident at once.
func (c *SpillCache) HighWater() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.highWater
}

// SpillSize returns the size of the spill file in bytes.
func (c *SpillCache) SpillSize() int64 { return c.blob.Size() }

// Close releases the spill file.
func (c *SpillCache) Close() error { return c.blob.Close() }

// MinMemBudget returns the smallest sensible memory budget for a TLR run
// with tile size nb on the given worker count: each in-flight task pins up
// to three tiles plus compression scratch (all ≤ nb² doubles), and the
// budget is soft — pinned tiles are never evicted — so anything below one
// worker's working set cannot be honored even approximately.
func MinMemBudget(nb, workers int) int64 {
	if workers < 1 {
		workers = 1
	}
	return int64(workers) * 4 * int64(nb) * int64(nb) * 8
}

// pin and unpin bracket an access to tile (i, j); without a cache they do
// nothing.
func (m *Matrix) pin(i, j int, mode pinMode) {
	if m.spill != nil {
		m.spill.pin(i, j, mode)
	}
}

func (m *Matrix) unpin(i, j int) {
	if m.spill != nil {
		m.spill.unpin(i, j)
	}
}

// tileUse is one tile a kernel body touches, and how.
type tileUse struct {
	i, j int
	mode pinMode
}

// with runs body between pins of the tiles it uses, taken in order and
// released in the same order on every exit, a panic included.
func (m *Matrix) with(body func(), uses ...tileUse) {
	if m.spill == nil {
		body()
		return
	}
	for _, u := range uses {
		m.spill.pin(u.i, u.j, u.mode)
	}
	defer func() {
		for _, u := range uses {
			m.spill.unpin(u.i, u.j)
		}
	}()
	body()
}

// offStats is what Bytes and RankSums count for slot (i, j), j < i: its
// tile's footprint and rank, or the cache's record of them while the tile
// is evicted; ok is false for a slot never filled.
func (m *Matrix) offStats(i, j int) (bytes int64, rank int, ok bool) {
	if c := m.spill; c != nil {
		c.mu.Lock()
		defer c.mu.Unlock()
		if r := c.recs[i][j]; !r.resident {
			return r.bytes, r.rank, true
		}
	}
	if t := m.off[i][j]; t != nil {
		return t.Bytes(), t.Rank(), true
	}
	return 0, 0, false
}

// Spill serialization: Matrix.EncodeTile's words as little-endian bytes.
// Spill data never leaves the machine or survives the process, so no
// versioning or checksums.
func wordBytes(words []float64) []byte {
	buf := make([]byte, 8*len(words))
	for i, v := range words {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
	}
	return buf
}

func bytesWords(buf []byte) []float64 {
	words := make([]float64, len(buf)/8)
	for i := range words {
		words[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
	}
	return words
}
