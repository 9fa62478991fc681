package la

import (
	"fmt"
	"math/rand"
	"syscall"
	"testing"
	"unsafe"
)

// guarded returns an r×c matrix with row stride s whose storage is mapped
// flush against an inaccessible page: its last element is the last readable
// float64 (atEnd), or its first the first readable one. Padding between rows
// holds a sentinel. free unmaps it.
func guarded(t *testing.T, rng *rand.Rand, r, c, s int, atEnd bool) (m *Mat, free func()) {
	t.Helper()
	ps := syscall.Getpagesize()
	need := (r-1)*s + c
	body := (need*8 + ps - 1) / ps * ps
	mem, err := syscall.Mmap(-1, 0, body+2*ps, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatal(err)
	}
	if err := syscall.Mprotect(mem[:ps], syscall.PROT_NONE); err != nil {
		t.Fatal(err)
	}
	if err := syscall.Mprotect(mem[ps+body:], syscall.PROT_NONE); err != nil {
		t.Fatal(err)
	}
	all := unsafe.Slice((*float64)(unsafe.Pointer(&mem[ps])), body/8)
	data := all[:need]
	if atEnd {
		data = all[len(all)-need:]
	}
	for i := range data {
		data[i] = -77
	}
	m = &Mat{Rows: r, Cols: c, Stride: s, Data: data}
	for i := 0; i < r; i++ {
		for j := range m.Row(i) {
			m.Row(i)[j] = rng.NormFloat64()
		}
	}
	return m, func() {
		if err := syscall.Munmap(mem); err != nil {
			t.Fatal(err)
		}
	}
}

// The micro-kernel reads the caller's operands in place, so a fringe tile
// handed to it whole would read past the end of a matrix — harmless to the
// result, which drops those rows and columns, and invisible to every other
// test. Here A, B and C (and a Syrk's operand and triangle, a Trsm's triangle
// and right-hand side) end, or
// begin, at a PROT_NONE page: such a read faults. Every body runs it, since
// each reads op(A) in its own steps (eight rows per broadcast FMA, or two
// halves of four), at heights on, below and past one and two whole tiles.
// The results must also be those of compact copies, bit for bit.
func TestGemmReadsNothingOutsideItsOperands(t *testing.T) {
	bothBodies(t, testGemmReadsNothingOutsideItsOperands)
}

func testGemmReadsNothingOutsideItsOperands(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, m := range []int{1, 3, 4, 5, 8, 9, 17} {
		for _, n := range []int{2, 7, 8, 9, 17} {
			for _, k := range []int{1, 6, 257} {
				for i := 0; i < 4; i++ {
					ta, tb := Trans(i%2), Trans(i/2)
					for _, atEnd := range []bool{true, false} {
						pad := 3
						if atEnd {
							pad = 0
						}
						ar, ac := m, k
						if ta == Transpose {
							ar, ac = k, m
						}
						br, bc := k, n
						if tb == Transpose {
							br, bc = n, k
						}
						a, freeA := guarded(t, rng, ar, ac, ac+pad, atEnd)
						b, freeB := guarded(t, rng, br, bc, bc+pad, atEnd)
						c, freeC := guarded(t, rng, m, n, n+pad, atEnd)
						want := c.Clone()
						Gemm(-0.75, a.Clone(), ta, b.Clone(), tb, 1, want)
						Gemm(-0.75, a, ta, b, tb, 1, c)
						sameBits(t, fmt.Sprintf("gemm %dx%dx%d ta=%d tb=%d atEnd=%v", m, n, k, ta, tb, atEnd), c, want)
						freeA()
						freeB()
						freeC()
					}
				}
			}
		}
	}
	for _, n := range []int{1, 5, 9} {
		for _, k := range []int{1, 6, 257} {
			for i := 0; i < 4; i++ {
				uplo, tr := Uplo(i%2), Trans(i/2)
				for _, atEnd := range []bool{true, false} {
					ar, ac := n, k
					if tr == Transpose {
						ar, ac = k, n
					}
					a, freeA := guarded(t, rng, ar, ac, ac, atEnd)
					c, freeC := guarded(t, rng, n, n, n, atEnd)
					want := c.Clone()
					Syrk(uplo, -0.75, a.Clone(), tr, 1, want)
					Syrk(uplo, -0.75, a, tr, 1, c)
					sameBits(t, fmt.Sprintf("syrk n=%d k=%d uplo=%d t=%d atEnd=%v", n, k, uplo, tr, atEnd), c, want)
					freeA()
					freeC()
				}
			}
		}
	}
	for _, n := range []int{33, 70} {
		allTrsm(func(side Side, uplo Uplo, tr Trans) {
			for _, atEnd := range []bool{true, false} {
				tri, freeT := guarded(t, rng, n, n, n, atEnd)
				for i := 0; i < n; i++ {
					tri.Set(i, i, 4+tri.At(i, i)*tri.At(i, i))
				}
				br, bc := rhsDims(side, n, 5)
				b, freeB := guarded(t, rng, br, bc, bc, atEnd)
				want := b.Clone()
				Trsm(side, uplo, tr, 1, tri.Clone(), want)
				Trsm(side, uplo, tr, 1, tri, b)
				sameBits(t, fmt.Sprintf("trsm n=%d side=%d uplo=%d t=%d atEnd=%v", n, side, uplo, tr, atEnd), b, want)
				freeT()
				freeB()
			}
		})
	}
}
