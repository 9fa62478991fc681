package runtime

import (
	"errors"
	"strings"
	"testing"
)

// An aborted graph holds no state of its own: executing it again runs every
// task, and both executions are traced — the contract core's recovery rule
// (re-run the evaluation from generation) rests on.
func TestTraceAbortedGraphReexecutes(t *testing.T) {
	data := []float64{0, 0}
	g := NewGraph()
	h := g.NewHandle("d", 16, 0)
	g.AddTask(Task{
		Name:     "generate",
		Run:      func() { data[0], data[1] = 1, 2 },
		Accesses: []Access{{Handle: h, Mode: Write}},
	})
	g.AddTask(Task{
		Name: "double",
		Run: func() {
			for i := range data {
				data[i] *= 2
			}
		},
		Accesses: []Access{{Handle: h, Mode: ReadWrite}},
	})
	injected := errors.New("injected")
	fired := false
	opt := ExecOptions{
		Workers: 2,
		Inject: func(graphLen, taskID int) {
			if taskID == 1 && !fired {
				fired = true
				panic(injected)
			}
		},
	}

	tr, err := g.ExecuteTraced(opt)
	var tp *TaskPanic
	if !errors.As(err, &tp) || tp.Name != "double" || !errors.Is(err, injected) {
		t.Fatalf("aborted run must report the panicked task and wrap its value: %v", err)
	}
	if len(tr.Events) != 2 {
		t.Fatalf("aborted run traced %d events, want the generate and the failed double", len(tr.Events))
	}

	tr, err = g.ExecuteTraced(opt)
	if err != nil {
		t.Fatalf("re-execution of an aborted graph failed: %v", err)
	}
	if len(tr.Events) != 2 {
		t.Fatalf("re-execution traced %d events, want 2", len(tr.Events))
	}
	// The generate task rewrote the payload, so the doubling ran over clean
	// data whatever the aborted run left behind.
	if data[0] != 2 || data[1] != 4 {
		t.Fatalf("re-execution ran over stale data: %v", data)
	}
}

func TestSimulateReportsCycle(t *testing.T) {
	g := NewGraph()
	h := g.NewHandle("d", 8, 0)
	a := g.AddTask(Task{Name: "alpha", Flops: 1, Accesses: []Access{{Handle: h, Mode: ReadWrite}}})
	b := g.AddTask(Task{Name: "beta", Flops: 1, Accesses: []Access{{Handle: h, Mode: ReadWrite}}})
	// Sequential task flow cannot build a cycle, so wire one directly:
	// alpha -> beta already exists; add beta -> alpha.
	g.tasks[a].deps = append(g.tasks[a].deps, b)
	g.tasks[b].successors = append(g.tasks[b].successors, a)
	g.tasks[a].indegree++

	_, err := g.Simulate(SimOptions{Workers: 1})
	if err == nil {
		t.Fatal("cyclic graph must error, not deadlock or panic")
	}
	msg := err.Error()
	if !strings.Contains(msg, "dependency cycle") ||
		!strings.Contains(msg, "alpha") || !strings.Contains(msg, "beta") {
		t.Fatalf("cycle error should name the tasks on the cycle: %q", msg)
	}
}
