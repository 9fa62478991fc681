package runtime

import (
	"reflect"
	"testing"
)

// TestPlaceListsEachTransferOnce: a task runs on the owner of what it writes;
// every remote read is an input of its task, but a node receives one
// producer's output once however many of its tasks read it, a new version is
// a new transfer, and data no task wrote comes from −1.
func TestPlaceListsEachTransferOnce(t *testing.T) {
	g := NewGraph()
	a := g.NewHandle("a", 8, 0) // Tag is the owning node
	b := g.NewHandle("b", 8, 1)
	c := g.NewHandle("c", 8, 1)
	z := g.NewHandle("z", 8, 0) // never written
	for _, acc := range [][]Access{
		{{a, Write}},                           // 0: node 0
		{{a, Read}, {b, ReadWrite}},            // 1: node 1, a from task 0
		{{a, Read}, {c, ReadWrite}},            // 2: node 1, a already there
		{{a, ReadWrite}},                       // 3: node 0, a new version
		{{a, Read}, {z, Read}, {b, ReadWrite}}, // 4: node 1, a from task 3, z initial
		{{b, Read}, {a, ReadWrite}},            // 5: node 0, b from task 4
	} {
		g.AddTask(Task{Name: "t", Accesses: acc})
	}
	p := g.Place(func(h *Handle) int { return int(h.Tag) })
	if want := []int{0, 1, 1, 0, 1, 0}; !reflect.DeepEqual(p.Node, want) {
		t.Fatalf("Node %v, want %v", p.Node, want)
	}
	if want := [][]int{nil, {0}, {0}, nil, {1, 2}, {3}}; !reflect.DeepEqual(p.Inputs, want) {
		t.Fatalf("Inputs %v, want %v", p.Inputs, want)
	}
	want := []Transfer{{0, a, 1}, {3, a, 1}, {-1, z, 1}, {4, b, 0}}
	if !reflect.DeepEqual(p.Transfers, want) {
		t.Fatalf("Transfers %v, want %v", p.Transfers, want)
	}
}
