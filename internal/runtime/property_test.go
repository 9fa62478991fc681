package runtime

import (
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// Property: for random DAGs generated by random access patterns, real
// execution never runs a task before all of its dependencies, at any worker
// count.
func TestQuickExecutionRespectsRandomDAGs(t *testing.T) {
	f := func(seed int64) bool {
		r := rng.New(uint64(seed) + 9)
		g := NewGraph()
		nHandles := 2 + r.Intn(6)
		handles := make([]*Handle, nHandles)
		for i := range handles {
			handles[i] = g.NewHandle("h", 8, 0)
		}
		nTasks := 5 + r.Intn(40)
		var mu sync.Mutex
		finished := make([]bool, nTasks)
		ok := true
		for id := 0; id < nTasks; id++ {
			id := id
			// random access set: 1-3 handles, random modes
			nAcc := 1 + r.Intn(3)
			acc := make([]Access, 0, nAcc)
			used := map[int]bool{}
			for a := 0; a < nAcc; a++ {
				h := r.Intn(nHandles)
				if used[h] {
					continue
				}
				used[h] = true
				mode := Read
				if r.Intn(2) == 0 {
					mode = ReadWrite
				}
				acc = append(acc, Access{handles[h], mode})
			}
			g.AddTask(Task{
				Name: "t",
				Run: func() {
					mu.Lock()
					// every declared dependency must already have finished
					for _, d := range g.Tasks()[id].Deps() {
						if !finished[d] {
							ok = false
						}
					}
					finished[id] = true
					mu.Unlock()
				},
				Accesses: acc,
			})
		}
		workers := 1 + r.Intn(8)
		if err := g.Execute(ExecOptions{Workers: workers}); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: the simulated makespan is sandwiched between the critical path
// and the serial total, and weakly decreases with more workers.
func TestQuickSimulateBounds(t *testing.T) {
	f := func(seed int64) bool {
		r := rng.New(uint64(seed) + 10)
		g := NewGraph()
		nHandles := 2 + r.Intn(5)
		handles := make([]*Handle, nHandles)
		for i := range handles {
			handles[i] = g.NewHandle("h", 8, 0)
		}
		for id := 0; id < 4+r.Intn(30); id++ {
			mode := Read
			if r.Intn(2) == 0 {
				mode = ReadWrite
			}
			g.AddTask(Task{
				Name:     "t",
				Flops:    1 + float64(r.Intn(100)),
				Accesses: []Access{{handles[r.Intn(nHandles)], mode}},
			})
		}
		serial := g.TotalFlops()
		cp := g.CriticalPathFlops()
		prev := serial + 1
		for _, w := range []int{1, 2, 4, 8} {
			mk, err := g.Simulate(SimOptions{Workers: w})
			if err != nil {
				return false
			}
			if mk > serial+1e-9 || mk < cp-1e-9 {
				return false
			}
			if mk > prev+1e-9 {
				return false // more workers must not hurt list scheduling here
			}
			prev = mk
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: the one list scheduler, on seeded random DAGs over several pool
// and slot counts. Without an arrival hook the makespan lies between the
// critical path and the serial total; two runs agree exactly; one pool with
// nil hooks is Simulate; every placement is on a lane of the task's pool, no
// lane runs two tasks at once, and no task starts before its predecessors
// finish or before the arrival hook says its inputs are there.
func TestQuickScheduleEngine(t *testing.T) {
	cost := func(t *Task) float64 { return t.Flops }
	f := func(seed int64) bool {
		g := randomDAG(rng.New(uint64(seed) + 13))
		serial, cp := g.TotalFlops(), g.CriticalPathFlops()
		for _, pools := range []int{1, 2, 3} {
			for _, slots := range []int{1, 2, 4} {
				place := func(t *Task) int { return t.ID % pools }
				mk, err := g.Schedule(pools, slots, cost, place, nil, nil)
				if err != nil || mk > serial+1e-9 || mk < cp-1e-9 {
					t.Logf("seed %d, %dx%d: makespan %g outside [%g, %g] (%v)", seed, pools, slots, mk, cp, serial, err)
					return false
				}
				if again, _ := g.Schedule(pools, slots, cost, place, nil, nil); again != mk {
					t.Logf("seed %d, %dx%d: two runs gave %g and %g", seed, pools, slots, mk, again)
					return false
				}
				if sim, _ := g.Simulate(SimOptions{Workers: slots}); pools == 1 && sim != mk {
					t.Logf("seed %d, 1x%d: Schedule %g, Simulate %g", seed, slots, mk, sim)
					return false
				}
				// reading a predecessor's output from another pool takes 1.5
				arrive := func(t *Task, finish []float64) float64 {
					var at float64
					for _, d := range t.Deps() {
						if d%pools != t.ID%pools {
							at = max(at, finish[d]+1.5)
						}
					}
					return at
				}
				start := make([]float64, g.Len())
				end := make([]float64, g.Len())
				laneFree := make([]float64, pools*slots)
				ok := true
				_, err = g.Schedule(pools, slots, cost, place, arrive, func(t *Task, lane int, s, e float64) {
					if lane/slots != place(t) || s < laneFree[lane] || e != s+cost(t) {
						ok = false
					}
					laneFree[lane], start[t.ID], end[t.ID] = e, s, e
				})
				for _, tk := range g.Tasks() {
					for _, d := range tk.Deps() {
						if start[tk.ID] < end[d] {
							ok = false
						}
					}
					if start[tk.ID] < arrive(tk, end) {
						ok = false
					}
				}
				if err != nil || !ok {
					t.Logf("seed %d, %dx%d: schedule with arrivals breaks an invariant (%v)", seed, pools, slots, err)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
