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

// Property: the list scheduler, on seeded random DAGs over several slot
// counts. The makespan lies between the critical path and the serial total;
// two runs agree exactly; it is Simulate's; every placement is on one of the
// slots, no slot runs two tasks at once, and no task starts before its
// predecessors finish.
func TestQuickScheduleEngine(t *testing.T) {
	cost := func(t *Task) float64 { return t.Flops }
	f := func(seed int64) bool {
		g := randomDAG(rng.New(uint64(seed) + 13))
		serial, cp := g.TotalFlops(), g.CriticalPathFlops()
		for _, slots := range []int{1, 2, 4} {
			start := make([]float64, g.Len())
			end := make([]float64, g.Len())
			laneFree := make([]float64, slots)
			ok := true
			mk, err := g.schedule(slots, cost, func(t *Task, lane int, s, e float64) {
				if lane < 0 || lane >= slots || s < laneFree[lane] || e != s+cost(t) {
					ok = false
					return
				}
				laneFree[lane], start[t.ID], end[t.ID] = e, s, e
			})
			if err != nil || mk > serial+1e-9 || mk < cp-1e-9 {
				t.Logf("seed %d, %d slots: makespan %g outside [%g, %g] (%v)", seed, slots, mk, cp, serial, err)
				return false
			}
			if again, _ := g.schedule(slots, cost, nil); again != mk {
				t.Logf("seed %d, %d slots: two runs gave %g and %g", seed, slots, mk, again)
				return false
			}
			if sim, _ := g.Simulate(SimOptions{Workers: slots}); sim != mk {
				t.Logf("seed %d, %d slots: schedule %g, Simulate %g", seed, slots, mk, sim)
				return false
			}
			for _, tk := range g.Tasks() {
				for _, d := range tk.Deps() {
					if start[tk.ID] < end[d] {
						ok = false
					}
				}
			}
			if !ok {
				t.Logf("seed %d, %d slots: the schedule breaks an invariant", seed, slots)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
