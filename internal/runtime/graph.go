// Package runtime is the StarPU substitute: a sequential-task-flow runtime
// with data-dependency inference, out-of-order parallel execution on a
// worker pool, a list-scheduling simulator that prices the same graphs on a
// simulated clock, and the owner-computes placement of a graph on nodes.
//
// Algorithms (tiled Cholesky, TLR Cholesky, solves) insert tasks in the order
// the sequential algorithm would execute them, declaring how each task
// accesses each data handle (read / write / read-write). The runtime infers
// the dependency DAG exactly as StarPU does:
//
//   - a reader depends on the last writer of the handle;
//   - a writer depends on the last writer and on every reader since then.
//
// Tasks then execute as soon as their dependencies resolve, giving the
// asynchronous look-ahead execution the paper's performance rests on.
package runtime

import (
	"fmt"
)

// AccessMode declares how a task touches a data handle.
type AccessMode int

// Access modes, mirroring StarPU's STARPU_R / STARPU_W / STARPU_RW.
const (
	Read AccessMode = iota
	Write
	ReadWrite
)

// Handle identifies a logical piece of data (typically one tile). Bytes is
// the payload size; Tag is an opaque caller-owned value (tile and tlr store
// the tile's index there, so an owner map can derive ownership).
type Handle struct {
	ID    int
	Name  string
	Bytes int64
	Tag   int64
}

// SetBytes updates the payload size of a variable-size handle (a compressed
// tile whose rank changes between graph executions). Only the task that owns
// the handle's write access may call it during execution: the runtime
// serializes that task against every other access of the handle, so the
// update is race-free by the same argument as the payload write itself.
func (h *Handle) SetBytes(b int64) { h.Bytes = b }

// Access pairs a handle with the mode a task uses it in.
type Access struct {
	Handle *Handle
	Mode   AccessMode
}

// Task is one node of the DAG. Run is the real-execution closure (may be nil
// for simulation-only graphs). Flops is the arithmetic cost used by the
// simulated executor and by the flop accounting the experiments report.
type Task struct {
	ID       int
	Name     string
	Flops    float64
	Priority int
	Run      func()
	Accesses []Access

	deps       []int // predecessor task IDs (deduplicated)
	successors []int
	indegree   int
}

// Deps returns the predecessor task IDs (read-only).
func (t *Task) Deps() []int { return t.deps }

// Successors returns the successor task IDs (read-only).
func (t *Task) Successors() []int { return t.successors }

// Graph accumulates handles and tasks via sequential task flow.
type Graph struct {
	tasks   []*Task
	handles []*Handle

	lastWriter map[int]int   // handle ID -> task ID
	readers    map[int][]int // handle ID -> reader task IDs since last write
}

// NewGraph returns an empty task graph.
func NewGraph() *Graph {
	return &Graph{
		lastWriter: make(map[int]int),
		readers:    make(map[int][]int),
	}
}

// NewHandle registers a data handle.
func (g *Graph) NewHandle(name string, bytes int64, tag int64) *Handle {
	h := &Handle{ID: len(g.handles), Name: name, Bytes: bytes, Tag: tag}
	g.handles = append(g.handles, h)
	return h
}

// Handles returns all registered handles.
func (g *Graph) Handles() []*Handle { return g.handles }

// AddTask inserts a task, inferring its dependencies from the access
// declarations and the insertion order. It returns the task's ID.
func (g *Graph) AddTask(t Task) int {
	id := len(g.tasks)
	t.ID = id
	depSet := make(map[int]struct{})
	for _, a := range t.Accesses {
		if a.Handle == nil {
			panic("runtime: task access with nil handle")
		}
		hid := a.Handle.ID
		switch a.Mode {
		case Read:
			if w, ok := g.lastWriter[hid]; ok {
				depSet[w] = struct{}{}
			}
			g.readers[hid] = append(g.readers[hid], id)
		case Write, ReadWrite:
			if w, ok := g.lastWriter[hid]; ok {
				depSet[w] = struct{}{}
			}
			for _, r := range g.readers[hid] {
				depSet[r] = struct{}{}
			}
			g.lastWriter[hid] = id
			g.readers[hid] = nil
		default:
			panic(fmt.Sprintf("runtime: unknown access mode %d", a.Mode))
		}
	}
	delete(depSet, id) // a task never depends on itself
	tt := t
	tt.deps = make([]int, 0, len(depSet))
	for d := range depSet {
		tt.deps = append(tt.deps, d)
	}
	tt.indegree = len(tt.deps)
	g.tasks = append(g.tasks, &tt)
	for _, d := range tt.deps {
		g.tasks[d].successors = append(g.tasks[d].successors, id)
	}
	return id
}

// Tasks returns the task list in insertion order.
func (g *Graph) Tasks() []*Task { return g.tasks }

// Len returns the number of tasks.
func (g *Graph) Len() int { return len(g.tasks) }

// TotalFlops sums the declared arithmetic cost over all tasks.
func (g *Graph) TotalFlops() float64 {
	var s float64
	for _, t := range g.tasks {
		s += t.Flops
	}
	return s
}

// CriticalPathFlops returns the flop count along the longest dependency
// chain — the lower bound on execution regardless of worker count.
func (g *Graph) CriticalPathFlops() float64 {
	finish := make([]float64, len(g.tasks))
	var best float64
	// tasks are topologically ordered by construction (deps have smaller IDs)
	for i, t := range g.tasks {
		var start float64
		for _, d := range t.deps {
			if finish[d] > start {
				start = finish[d]
			}
		}
		finish[i] = start + t.Flops
		if finish[i] > best {
			best = finish[i]
		}
	}
	return best
}

// CountByName returns how many tasks carry each name (kernel type).
func (g *Graph) CountByName() map[string]int {
	m := make(map[string]int)
	for _, t := range g.tasks {
		m[t.Name]++
	}
	return m
}
