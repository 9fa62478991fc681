package chaos

import (
	"errors"
	"slices"
	"strings"
	"testing"
	"time"
)

// panicked calls hook(graphLen, id) for each id in turn and returns the IDs
// whose call panicked; every panic must wrap ErrInjected.
func panicked(t *testing.T, hook func(graphLen, taskID int), graphLen int, ids ...int) []int {
	t.Helper()
	var fired []int
	for _, id := range ids {
		func() {
			defer func() {
				if r := recover(); r != nil {
					if err, ok := r.(error); !ok || !errors.Is(err, ErrInjected) {
						t.Fatalf("panic value must wrap ErrInjected: %v", r)
					}
					fired = append(fired, id)
				}
			}()
			hook(graphLen, id)
		}()
	}
	return fired
}

// panicVictims runs a graph of graphLen task executions against a fresh
// injector and returns the task IDs whose execution panicked.
func panicVictims(t *testing.T, plan FaultPlan, graphLen int) []int {
	t.Helper()
	ids := make([]int, graphLen)
	for id := range ids {
		ids[id] = id
	}
	return panicked(t, NewInjector(&plan).TaskHook, graphLen, ids...)
}

func TestTaskPanicsDeterministicAndBudgeted(t *testing.T) {
	plan := FaultPlan{Seed: 42, TaskPanics: 3}
	a := panicVictims(t, plan, 100)
	b := panicVictims(t, plan, 100)
	if len(a) != 3 {
		t.Fatalf("budget of 3 produced %d panics", len(a))
	}
	if len(b) != len(a) {
		t.Fatalf("reruns disagree: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("victim choice not deterministic: %v vs %v", a, b)
		}
	}
	if c := panicVictims(t, FaultPlan{Seed: 7, TaskPanics: 3}, 100); len(c) == 3 {
		same := true
		for i := range a {
			if a[i] != c[i] {
				same = false
			}
		}
		if same {
			t.Fatal("different seeds picked identical victims (suspicious)")
		}
	}
}

// A victim fires once per Injector, so executing the same graph again — how
// a faulted evaluation is replayed — gets past every one of them.
func TestReplaysAlwaysSucceed(t *testing.T) {
	in := NewInjector(&FaultPlan{Seed: 1, TaskPanics: 100})
	for id := 0; id < 50; id++ {
		func() {
			defer func() { _ = recover() }()
			in.TaskHook(50, id)
		}()
	}
	if got := in.Stats().TaskPanics; got != 50 {
		t.Fatalf("first pass fired %d of 50 victims", got)
	}
	for id := 0; id < 50; id++ {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("a spent victim must never panic again (task %d): %v", id, r)
				}
			}()
			in.TaskHook(50, id)
		}()
	}
}

func TestCompressMissPureAndBudgeted(t *testing.T) {
	const mt = 8
	in := NewInjector(&FaultPlan{Seed: 3, CompressMisses: 4})
	hits := map[[2]int]bool{}
	for i := 0; i < mt; i++ {
		for j := 0; j < i; j++ {
			if in.CompressMiss(mt, i, j) {
				hits[[2]int{i, j}] = true
			}
		}
	}
	if len(hits) != 4 {
		t.Fatalf("%d tiles forced dense, want 4", len(hits))
	}
	// Re-querying (concurrent tasks, graph re-executions) gives the same set.
	for i := 0; i < mt; i++ {
		for j := 0; j < i; j++ {
			if in.CompressMiss(mt, i, j) != hits[[2]int{i, j}] {
				t.Fatalf("CompressMiss(%d,%d) not stable", i, j)
			}
		}
	}
	if in.CompressMiss(mt, 2, 2) || in.CompressMiss(mt, 2, 5) {
		t.Fatal("diagonal/upper tiles can never miss compression")
	}
}

// The kill is the victim rank's alone, and it fires once per Injector.
func TestRankKillFiresOnce(t *testing.T) {
	in := NewInjector(&FaultPlan{KillRank: 2}) // kills rank 1 at its first task
	if got := panicked(t, in.ForRank(0), 10, 0, 1, 10); len(got) != 0 {
		t.Fatalf("rank 0 is not the victim, yet died at %v", got)
	}
	if got := panicked(t, in.ForRank(1), 10, 3, 4, 10, 0); !slices.Equal(got, []int{3}) {
		t.Fatalf("victim died at %v, want its first task only", got)
	}
	if s := in.Stats(); s.RanksKilled != 1 {
		t.Fatalf("stats: %+v", s)
	}
}

// KillAtTask kills before the first owned task at or past it, and a value
// past the victim's last task — or past the DAG — at the step after it.
func TestKillAtTaskTargetsFirstOwnedTask(t *testing.T) {
	for _, tc := range []struct {
		at   int
		ids  []int // the victim's calls, in walk order; 20 = graphLen
		want []int
	}{
		{7, []int{2, 5, 9, 12, 20}, []int{9}},
		{9, []int{2, 5, 9, 12, 20}, []int{9}},
		{13, []int{2, 5, 9, 12, 20, 20}, []int{20}},
		{500, []int{2, 5, 9, 12, 20}, []int{20}},
	} {
		in := NewInjector(&FaultPlan{KillRank: 3, KillAtTask: tc.at}) // rank 2
		if got := panicked(t, in.ForRank(1), 20, tc.ids...); len(got) != 0 {
			t.Fatalf("KillAtTask %d: rank 1 died at %v", tc.at, got)
		}
		if got := panicked(t, in.ForRank(2), 20, tc.ids...); !slices.Equal(got, tc.want) {
			t.Errorf("KillAtTask %d: victim died at %v, want %v", tc.at, got, tc.want)
		}
	}
}

func TestStatsCountInjections(t *testing.T) {
	in := NewInjector(&FaultPlan{Seed: 5, TaskPanics: 1, TaskDelays: 2, TaskDelay: time.Microsecond, KillRank: 1})
	panicked(t, in.ForRank(0), 20, 0, 1)
	for id := 0; id < 20; id++ {
		func() {
			defer func() { _ = recover() }()
			in.TaskHook(20, id)
		}()
	}
	s := in.Stats()
	if s.TaskPanics != 1 || s.TaskDelays != 2 || s.RanksKilled != 1 {
		t.Fatalf("stats: %+v", s)
	}
}

func TestValidateNamesFields(t *testing.T) {
	for _, tc := range []struct {
		plan FaultPlan
		want string
	}{
		{FaultPlan{TaskPanics: -1}, "TaskPanics"},
		{FaultPlan{TaskDelays: -1}, "TaskDelays"},
		{FaultPlan{TaskDelay: -time.Second}, "TaskDelay"},
		{FaultPlan{CompressMisses: -1}, "CompressMisses"},
		{FaultPlan{KillRank: -1}, "KillRank"},
		{FaultPlan{KillRank: 1, KillAtTask: -1}, "KillAtTask"},
		{FaultPlan{KillAtTask: 2}, "KillAtTask"},
	} {
		err := tc.plan.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Validate(%+v) = %v, want mention of %s", tc.plan, err, tc.want)
		}
	}
	ok := FaultPlan{Seed: 1, TaskPanics: 2, TaskDelays: 1, KillRank: 3, KillAtTask: 40}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
}
