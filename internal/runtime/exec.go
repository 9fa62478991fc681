package runtime

import (
	"container/heap"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// Graph-execution counters: completed counts only tasks whose body returned
// normally; failed tasks and the successors cancelled by a failure are
// accounted separately so the drain arithmetic is auditable from metrics.
var (
	cntExecRuns       = obs.GetCounter("runtime.exec.runs")
	cntTasksCompleted = obs.GetCounter("runtime.tasks.completed")
	cntTasksFailed    = obs.GetCounter("runtime.tasks.failed")
	cntTasksCancelled = obs.GetCounter("runtime.tasks.cancelled")
)

// TaskPanic is the failure Execute reports for a task whose body (or
// injection hook) panicked. It unwraps to the panic value when that is an
// error, so callers can tell a numerical breakdown (la.ErrNotPositiveDefinite)
// from a fault of the execution itself, which re-running the graph repairs.
type TaskPanic struct {
	Name  string
	ID    int
	Value any
}

func (p *TaskPanic) Error() string {
	return fmt.Sprintf("runtime: task %q (id %d) panicked: %v", p.Name, p.ID, p.Value)
}

func (p *TaskPanic) Unwrap() error {
	err, _ := p.Value.(error)
	return err
}

// ExecOptions configures real (wall-clock) execution.
type ExecOptions struct {
	// Workers is the number of parallel workers; values < 1 mean 1.
	Workers int
	// Inject, when non-nil, runs before every task execution inside the
	// executor's panic-recovery scope — the chaos-injection hook. It receives
	// the graph length and the task ID; a hook panic is handled exactly like
	// a task panic, a hook sleep models a straggler. The ranks' walk of the
	// same DAG calls mpi.DistTLR.Inject, of the same shape.
	Inject func(graphLen, taskID int)
}

// Execute runs every task of the graph on a pool of workers, honoring the
// inferred dependencies and preferring higher-priority ready tasks. It
// returns an error if any task panics (the remaining tasks are drained
// without running) or if the graph contains an unreachable task (which would
// indicate a dependency-inference bug).
func (g *Graph) Execute(opt ExecOptions) error {
	return g.execute(opt, nil)
}

// execute is the shared engine behind Execute and ExecuteTraced.
func (g *Graph) execute(opt ExecOptions, rec *recorder) error {
	workers := opt.Workers
	if workers < 1 {
		workers = 1
	}
	n := len(g.tasks)
	if n == 0 {
		return nil
	}

	cntExecRuns.Inc()
	indeg := make([]int, n)
	ready := &taskHeap{}
	for i, t := range g.tasks {
		indeg[i] = t.indegree
		if t.indegree == 0 {
			heap.Push(ready, t)
		}
	}

	var (
		mu      sync.Mutex
		cond    = sync.NewCond(&mu)
		done    int // tasks whose body returned normally
		nFailed int // tasks whose body panicked
		failed  error
	)

	// runTask executes one task, turning a panic of the body (or of the
	// injection hook) into a *TaskPanic. A failed task is never re-run here:
	// the graph aborts and the caller, which knows how to regenerate the
	// data, decides whether to execute it again.
	runTask := func(w int, t *Task) (err error) {
		var t0 time.Time
		if rec != nil {
			t0 = time.Now()
			defer func() { rec.record(w, t, t0, time.Now()) }()
		}
		defer func() {
			if r := recover(); r != nil {
				err = &TaskPanic{Name: t.Name, ID: t.ID, Value: r}
			}
		}()
		if opt.Inject != nil {
			opt.Inject(n, t.ID)
		}
		if t.Run != nil {
			t.Run()
		}
		return nil
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				for ready.Len() == 0 && done < n && failed == nil {
					cond.Wait()
				}
				if done >= n || failed != nil {
					mu.Unlock()
					return
				}
				t := heap.Pop(ready).(*Task)
				mu.Unlock()

				err := runTask(w, t)

				mu.Lock()
				if err != nil {
					// Unified error path: EVERY failed task stops here, not
					// just the first one. A second failure racing in after
					// `failed` was set must not fall through to the success
					// bookkeeping below — that would count a failed task as
					// done and ready the successors of a task whose output
					// does not exist.
					if failed == nil {
						failed = err
						cond.Broadcast()
					}
					nFailed++
					mu.Unlock()
					return
				}
				done++
				newlyReady := 0
				for _, s := range t.successors {
					indeg[s]--
					if indeg[s] == 0 {
						heap.Push(ready, g.tasks[s])
						newlyReady++
					}
				}
				if done >= n {
					cond.Broadcast()
				} else {
					// Wake one sleeping worker per newly-ready task. A single
					// Signal here loses wake-ups when a finished task frees
					// k > 1 successors: only one worker resumes and the other
					// k-1 ready tasks sit idle until some later completion
					// happens to signal again. This worker loops around and
					// picks up work itself, so signal for the tasks beyond
					// the one it will take.
					for i := 1; i < newlyReady; i++ {
						cond.Signal()
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	cntTasksCompleted.Add(int64(done))
	cntTasksFailed.Add(int64(nFailed))
	if failed != nil {
		cancelled := n - done - nFailed
		cntTasksCancelled.Add(int64(cancelled))
		return fmt.Errorf("runtime: aborted after %d of %d tasks completed (%d failed, %d cancelled): %w",
			done, n, nFailed, cancelled, failed)
	}
	if done != n {
		return fmt.Errorf("runtime: executed %d of %d tasks; dependency cycle or inference bug", done, n)
	}
	return nil
}

// taskHeap is a max-heap on task priority (ties broken by insertion order,
// earlier first, to keep execution close to the sequential flow).
type taskHeap []*Task

func (h taskHeap) Len() int { return len(h) }
func (h taskHeap) Less(i, j int) bool {
	if h[i].Priority != h[j].Priority {
		return h[i].Priority > h[j].Priority
	}
	return h[i].ID < h[j].ID
}
func (h taskHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *taskHeap) Push(x any)   { *h = append(*h, x.(*Task)) }
func (h *taskHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	*h = old[:n-1]
	return t
}

// CostModel maps a task to its execution time in seconds on one worker of
// the simulated machine.
type CostModel func(*Task) float64

// SimOptions configures the simulated executor.
type SimOptions struct {
	Workers int
	Cost    CostModel
	// Barrier, when true, executes the DAG level by level (a task at
	// topological depth d starts only after every task at depth < d has
	// finished), modeling a bulk-synchronous fork-join schedule instead of
	// out-of-order task flow. Used by the scheduling ablation.
	Barrier bool
}

// Simulate performs list scheduling of the DAG on Workers homogeneous
// workers under the given cost model (flops when nil) and returns the
// makespan in seconds. No task bodies run; only the declared costs matter.
// With Barrier the level-ordered graph of withBarriers is scheduled in g's
// place. A graph whose dependencies form a cycle (impossible via AddTask, but
// reachable through corrupted state) yields an error naming the tasks on the
// cycle.
func (g *Graph) Simulate(opt SimOptions) (float64, error) {
	cost := opt.Cost
	if cost == nil {
		cost = func(t *Task) float64 { return t.Flops }
	}
	if opt.Barrier {
		if err := g.cycleError(); err != nil {
			return 0, err
		}
		g, cost = g.withBarriers(cost)
	}
	return g.schedule(max(opt.Workers, 1), cost, nil)
}

// withBarriers returns the bulk-synchronous form of g and its cost model: the
// tasks level by level (a task's level is its topological depth), in ID order
// and without priorities inside a level, and after each level a zero-cost
// "barrier" task that every task of the level precedes and every task of the
// next follows. The list schedule of that graph is the fork-join schedule, so
// Barrier needs no engine of its own. Task IDs in it count in level order.
func (g *Graph) withBarriers(cost CostModel) (*Graph, CostModel) {
	level := make([]int, len(g.tasks))
	var byLevel [][]*Task
	for i, t := range g.tasks {
		for _, d := range t.deps {
			level[i] = max(level[i], level[d]+1)
		}
		if level[i] == len(byLevel) {
			byLevel = append(byLevel, nil)
		}
		byLevel[level[i]] = append(byLevel[level[i]], t)
	}
	b := NewGraph()
	sync := b.NewHandle("barrier", 0, 0)
	costs := make([]float64, 0, len(g.tasks)+len(byLevel))
	for _, tasks := range byLevel {
		for _, t := range tasks {
			b.AddTask(Task{Name: t.Name, Flops: t.Flops, Accesses: []Access{{sync, Read}}})
			costs = append(costs, cost(t))
		}
		b.AddTask(Task{Name: "barrier", Accesses: []Access{{sync, ReadWrite}}})
		costs = append(costs, 0)
	}
	return b, func(t *Task) float64 { return costs[t.ID] }
}

// cycleError reports a diagnostic error naming the tasks on a dependency
// cycle, or nil for a well-formed DAG. Detection is Kahn's algorithm; the
// cycle itself is extracted by walking dependencies among the tasks the
// elimination could not reach.
func (g *Graph) cycleError() error {
	n := len(g.tasks)
	indeg := make([]int, n)
	for i, t := range g.tasks {
		indeg[i] = len(t.deps)
	}
	queue := make([]int, 0, n)
	for i, d := range indeg {
		if d == 0 {
			queue = append(queue, i)
		}
	}
	removed := 0
	for len(queue) > 0 {
		id := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		removed++
		for _, s := range g.tasks[id].successors {
			indeg[s]--
			if indeg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	if removed == n {
		return nil
	}
	// Every unremoved task has an unremoved dependency, so walking deps
	// among them must revisit a task within n steps — that revisit closes
	// the cycle.
	start := -1
	for i := 0; i < n; i++ {
		if indeg[i] > 0 {
			start = i
			break
		}
	}
	seenAt := make(map[int]int)
	var path []int
	cur := start
	for {
		if at, ok := seenAt[cur]; ok {
			path = append(path[at:], cur)
			break
		}
		seenAt[cur] = len(path)
		path = append(path, cur)
		next := -1
		for _, d := range g.tasks[cur].deps {
			if indeg[d] > 0 {
				next = d
				break
			}
		}
		cur = next
	}
	names := make([]string, len(path))
	for i, id := range path {
		t := g.tasks[id]
		names[i] = fmt.Sprintf("%s(id %d)", t.Name, t.ID)
	}
	return fmt.Errorf("runtime: dependency cycle: %s", strings.Join(names, " → "))
}

// schedule is the list scheduler behind Simulate: ready tasks are taken by
// (ready time, priority, ID) and run for cost(task) seconds on the
// earliest-free of slots workers, a task being ready when its last
// predecessor finishes. rec, when non-nil, receives every placement; the
// tests read a schedule through it. It returns the makespan, or the
// cycleError of a graph that cannot be scheduled to the end.
func (g *Graph) schedule(slots int, cost CostModel, rec func(t *Task, lane int, start, finish float64)) (float64, error) {
	n := len(g.tasks)
	finish := make([]float64, n)
	indeg := make([]int, n)
	ready := &simHeap{}
	push := func(t *Task) {
		var at float64
		for _, d := range t.deps {
			at = max(at, finish[d])
		}
		heap.Push(ready, simEntry{task: t, ready: at})
	}
	for i, t := range g.tasks {
		indeg[i] = t.indegree
		if t.indegree == 0 {
			push(t)
		}
	}
	free := make([]float64, slots)
	var makespan float64
	for scheduled := 0; scheduled < n; scheduled++ {
		if ready.Len() == 0 {
			// unreachable for AddTask-built graphs; diagnose rather than hang
			return 0, g.cycleError()
		}
		e := heap.Pop(ready).(simEntry)
		lane := 0 // earliest-free slot
		for i := 1; i < slots; i++ {
			if free[i] < free[lane] {
				lane = i
			}
		}
		start := max(free[lane], e.ready)
		end := start + cost(e.task)
		free[lane], finish[e.task.ID] = end, end
		makespan = max(makespan, end)
		if rec != nil {
			rec(e.task, lane, start, end)
		}
		for _, s := range e.task.successors {
			indeg[s]--
			if indeg[s] == 0 {
				push(g.tasks[s])
			}
		}
	}
	return makespan, nil
}

type simEntry struct {
	task  *Task
	ready float64
}

// simHeap orders by readiness time, then priority, then ID. Scheduling the
// earliest-ready task first approximates list scheduling well for the
// homogeneous-worker model.
type simHeap []simEntry

func (h simHeap) Len() int { return len(h) }
func (h simHeap) Less(i, j int) bool {
	if h[i].ready != h[j].ready {
		return h[i].ready < h[j].ready
	}
	if h[i].task.Priority != h[j].task.Priority {
		return h[i].task.Priority > h[j].task.Priority
	}
	return h[i].task.ID < h[j].task.ID
}
func (h simHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *simHeap) Push(x any)   { *h = append(*h, x.(simEntry)) }
func (h *simHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}
