package dataio

import (
	"fmt"
	"os"
	"sort"
	"sync"
)

// Region locates one blob inside a BlobFile: a byte range [Off, Off+Cap)
// of which the first Len bytes are live. A zero Region is "no region".
type Region struct {
	Off int64
	Len int64
	Cap int64
}

// Valid reports whether the region refers to stored bytes.
func (r Region) Valid() bool { return r.Cap > 0 }

// BlobFile is a single-file blob store for spill data: fixed-cost Put/Get
// of byte slices addressed by Region. It is built for the out-of-core tile
// cache's access pattern — the same logical blob is rewritten many times as
// a tile is evicted, reloaded and updated across optimizer iterations — so
// Put reuses the caller's previous region in place when the new payload
// fits its capacity, and recycles outgrown regions through a free list
// instead of growing the file forever.
//
// Spill data is scratch, not a durable artifact: there is no header, no
// checksum and no recovery path. Callers that need durability use
// AtomicWriteFile. All methods are safe for concurrent use.
type BlobFile struct {
	mu   sync.Mutex
	f    *os.File
	size int64    // current end-of-file offset
	free []Region // recycled regions, sorted by Cap ascending
}

// NewBlobFile creates a blob store backed by an anonymous temp file in dir
// (or the default temp dir when dir is ""). The file is unlinked
// immediately after creation, so the space is reclaimed by the OS when the
// store is closed or the process exits — a crashed run cannot leak spill
// files.
func NewBlobFile(dir string) (*BlobFile, error) {
	f, err := os.CreateTemp(dir, "spill-*.blob")
	if err != nil {
		return nil, fmt.Errorf("dataio: blob file: %w", err)
	}
	// Unlink while keeping the fd: POSIX keeps the inode alive until the
	// last descriptor closes.
	if err := os.Remove(f.Name()); err != nil {
		f.Close()
		return nil, fmt.Errorf("dataio: blob file: %w", err)
	}
	return &BlobFile{f: f}, nil
}

// Put stores buf and returns its region. prev is the caller's previous
// region for the same logical blob (zero Region for none): when buf fits
// prev's capacity the bytes are rewritten in place, otherwise prev joins
// the free list and the blob moves to a recycled or freshly appended
// region. The returned region supersedes prev.
func (b *BlobFile) Put(buf []byte, prev Region) (Region, error) {
	n := int64(len(buf))
	b.mu.Lock()
	defer b.mu.Unlock()
	r := prev
	if !r.Valid() || n > r.Cap {
		if r.Valid() {
			b.freeLocked(r)
		}
		r = b.allocLocked(n)
	}
	r.Len = n
	if _, err := b.f.WriteAt(buf, r.Off); err != nil {
		return Region{}, fmt.Errorf("dataio: blob write: %w", err)
	}
	return r, nil
}

// Get reads the live bytes of r into a fresh slice.
func (b *BlobFile) Get(r Region) ([]byte, error) {
	if !r.Valid() {
		return nil, fmt.Errorf("dataio: blob read: empty region")
	}
	buf := make([]byte, r.Len)
	if _, err := b.f.ReadAt(buf, r.Off); err != nil {
		return nil, fmt.Errorf("dataio: blob read: %w", err)
	}
	return buf, nil
}

// Free returns r's space to the free list for reuse by later Puts.
func (b *BlobFile) Free(r Region) {
	if !r.Valid() {
		return
	}
	b.mu.Lock()
	b.freeLocked(r)
	b.mu.Unlock()
}

// Size reports the current file size in bytes (allocated, not just live).
func (b *BlobFile) Size() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.size
}

// Close releases the backing file. The store must not be used afterwards.
func (b *BlobFile) Close() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.f == nil {
		return nil
	}
	err := b.f.Close()
	b.f = nil
	return err
}

// allocLocked finds the smallest free region with capacity >= n, or
// appends a new one at end of file.
func (b *BlobFile) allocLocked(n int64) Region {
	i := sort.Search(len(b.free), func(i int) bool { return b.free[i].Cap >= n })
	if i < len(b.free) {
		r := b.free[i]
		b.free = append(b.free[:i], b.free[i+1:]...)
		return r
	}
	r := Region{Off: b.size, Cap: n}
	b.size += n
	return r
}

// freeLocked inserts r into the free list keeping it sorted by Cap.
func (b *BlobFile) freeLocked(r Region) {
	r.Len = 0
	i := sort.Search(len(b.free), func(i int) bool { return b.free[i].Cap >= r.Cap })
	b.free = append(b.free, Region{})
	copy(b.free[i+1:], b.free[i:])
	b.free[i] = r
}
