package mpi

import "testing"

// The old scheme (kind*mt*mt + i*mt + k) produced small, mt-relative tags
// that collided with user tags and with each other across kinds. The
// namespaced scheme must give every (kind, i, k) triple a unique tag above
// UserTagLimit regardless of the tile count — exercised here at a
// non-divisible n/nb (n=90, nb=16 → mt=6 with a ragged last tile).
func TestTagNamespaceUnique(t *testing.T) {
	const mt = 6 // (90 + 16 - 1) / 16
	seen := map[int]string{}
	for kind := kindTile; kind < kindLast; kind++ {
		for i := 0; i < mt; i++ {
			for k := 0; k < mt; k++ {
				tag := tagOf(kind, i, k)
				if tag < UserTagLimit {
					t.Fatalf("tagOf(%d,%d,%d) = %d is inside the user tag range", kind, i, k, tag)
				}
				if prev, ok := seen[tag]; ok {
					t.Fatalf("tag collision: tagOf(%d,%d,%d) repeats %s", kind, i, k, prev)
				}
				seen[tag] = "earlier triple"
				// the allreduce reply convention uses tag+1; the increment
				// must stay within the same (kind, i) namespace (the k field
				// is capped one short of full, so it can never carry)
				reply := tag + 1
				if reply>>(2*tagIndexBits) != kind || (reply>>tagIndexBits)&(1<<tagIndexBits-1) != i {
					t.Fatalf("reply tag of (%d,%d,%d) carries out of its namespace", kind, i, k)
				}
			}
		}
	}
}

func TestTagOverflowPanics(t *testing.T) {
	for _, bad := range [][3]int{
		{kindTile, 1 << tagIndexBits, 0},   // i overflow
		{kindTile, 0, 1<<tagIndexBits - 1}, // k overflow (reply headroom)
		{kindTile, -1, 0},                  // negative index
		{0, 0, 0},                          // invalid kind
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("tagOf(%v) should panic", bad)
				}
			}()
			tagOf(bad[0], bad[1], bad[2])
		}()
	}
}
