package mpi

import "fmt"

// Message-tag namespace.
//
// Internal library tags are packed as
//
//	tag = kind<<48 | i<<24 | k
//
// so every (kind, i, k) triple maps to a unique tag independent of the tile
// count. The previous mt-relative packing (kind*mt*mt + i*mt + k) produced
// small integers that collided with user-chosen tags at small tile counts
// and, worse, mapped DIFFERENT (kind, i, k) triples to the SAME tag once a
// second algorithm reused the scheme with its own kind constants — leaving
// no headroom for the compressed-tile message kinds the TLR layer adds.
//
// All internal tags are ≥ UserTagLimit. Application code passing tags to
// Send/Recv/AllreduceSum must stay below it.

// UserTagLimit is the first tag value reserved for the library's internal
// message kinds. Application tags must lie in [0, UserTagLimit).
const UserTagLimit = 1 << 48

// tagIndexBits is the width of each of the two index fields (i, k).
const tagIndexBits = 24

// Internal message kinds; each is a disjoint tag namespace.
const (
	kindTile = iota + 1 // a factorization task's output tile (i, k), as Matrix.EncodeTile's words
	kindSum             // scalar reductions (LogDet and friends)
	kindFwd             // forward-solve partial contributions
	kindFwdB            // forward-solve solved-block broadcast
	kindBwd             // backward-solve partial contributions
	kindBwdB            // backward-solve solved-block broadcast
	kindLast            // sentinel: first unused kind
)

// tagOf builds the internal tag for (kind, i, k). It panics when an index
// overflows its field: with 24-bit fields that means more than 16.7M tile
// rows — far beyond any realizable problem — but the check turns what would
// be a silent tag collision into a loud failure. The k field is kept one
// short of full so the tag+1 convention of AllreduceSum (reply tag) can
// never carry into the i field.
func tagOf(kind, i, k int) int {
	if i < 0 || k < 0 || i >= 1<<tagIndexBits || k >= 1<<tagIndexBits-1 {
		panic(fmt.Sprintf("mpi: tag indices (%d,%d) overflow the %d-bit tag fields", i, k, tagIndexBits))
	}
	if kind <= 0 || kind >= 1<<15 {
		panic(fmt.Sprintf("mpi: tag kind %d out of range", kind))
	}
	return kind<<(2*tagIndexBits) | i<<tagIndexBits | k
}
