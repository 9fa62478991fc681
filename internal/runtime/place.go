package runtime

// Transfer is one copy of a handle's contents from the node that owns it to a
// node that reads it: what task From wrote (−1: the handle's initial contents,
// which no task of the graph wrote) sent to node To.
type Transfer struct {
	From   int
	Handle *Handle
	To     int
}

// Placement is a graph run owner-computes on several nodes, as Place infers
// it from the graph's data access alone.
type Placement struct {
	// Node is, per task ID, the node the task runs on.
	Node []int
	// Inputs is, per task ID, the transfers the task waits for — one for
	// every handle it reads from another node — as indices into Transfers.
	Inputs [][]int
	// Transfers lists each (producer, consumer node) pair once, in the order
	// of the first task that needs it.
	Transfers []Transfer
}

// Place is StarPU's owner-computes rule over an owner map: a task runs on
// the owner of the handle it writes (node 0 if it writes none), and each
// handle it reads that another node owns comes from the task that last wrote
// it. A node receives a producer's output once, however many of its tasks
// read it, so the transfers are exactly the messages a distributed run sends
// — the ranks of internal/mpi send them, and cluster's communication model
// prices them.
func (g *Graph) Place(owner func(*Handle) int) Placement {
	p := Placement{Node: make([]int, len(g.tasks)), Inputs: make([][]int, len(g.tasks))}
	lastWriter := make([]int, len(g.handles))
	for i := range lastWriter {
		lastWriter[i] = -1
	}
	type pair struct{ from, handle, to int }
	index := make(map[pair]int)
	for i, t := range g.tasks {
		for _, a := range t.Accesses {
			if a.Mode != Read {
				p.Node[i] = owner(a.Handle)
			}
		}
		for _, a := range t.Accesses {
			h := a.Handle
			if a.Mode != Read {
				lastWriter[h.ID] = i
				continue
			}
			if owner(h) == p.Node[i] {
				continue
			}
			key := pair{lastWriter[h.ID], h.ID, p.Node[i]}
			x, ok := index[key]
			if !ok {
				x = len(p.Transfers)
				index[key] = x
				p.Transfers = append(p.Transfers, Transfer{From: key.from, Handle: h, To: key.to})
			}
			p.Inputs[i] = append(p.Inputs[i], x)
		}
	}
	return p
}
