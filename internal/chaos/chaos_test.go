package chaos

import (
	"errors"
	"strings"
	"testing"
	"time"
)

// panicVictims runs a graph of graphLen task executions against a fresh
// injector and returns the task IDs whose execution panicked.
func panicVictims(t *testing.T, plan FaultPlan, graphLen int) []int {
	t.Helper()
	in := NewInjector(&plan)
	var victims []int
	for id := 0; id < graphLen; id++ {
		func() {
			defer func() {
				if r := recover(); r != nil {
					err, ok := r.(error)
					if !ok || !errors.Is(err, ErrInjected) {
						t.Fatalf("panic value must wrap ErrInjected: %v", r)
					}
					victims = append(victims, id)
				}
			}()
			in.TaskHook(graphLen, id)
		}()
	}
	return victims
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

func TestMessageFaultDeterministicAndBudgeted(t *testing.T) {
	run := func() (drops, delays int, verdicts []bool) {
		in := NewInjector(&FaultPlan{Seed: 9, DropMessages: 2, DelayMessages: 2})
		for i := 0; i < 200; i++ {
			drop, delay := in.MessageFault(i%3, (i+1)%3, i%7, 0)
			verdicts = append(verdicts, drop)
			if drop {
				drops++
			}
			if delay > 0 {
				delays++
			}
		}
		return
	}
	d1, l1, v1 := run()
	d2, _, v2 := run()
	if d1 != 2 || l1 != 2 {
		t.Fatalf("budgets not honored: %d drops, %d delays", d1, l1)
	}
	if d1 != d2 {
		t.Fatalf("drop counts disagree across runs: %d vs %d", d1, d2)
	}
	for i := range v1 {
		if v1[i] != v2[i] {
			t.Fatalf("verdict %d not deterministic", i)
		}
	}
	// Retransmissions are never dropped.
	in := NewInjector(&FaultPlan{Seed: 9, DropMessages: 100})
	for i := 0; i < 50; i++ {
		if drop, _ := in.MessageFault(0, 1, i, 1); drop {
			t.Fatal("attempt 1 must always deliver")
		}
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

func TestRankFaultFiresOnce(t *testing.T) {
	in := NewInjector(&FaultPlan{KillRank: 2}) // kills rank 1
	in.RankFault(0)                            // not the victim
	fired := 0
	for i := 0; i < 3; i++ {
		func() {
			defer func() {
				if recover() != nil {
					fired++
				}
			}()
			in.RankFault(1)
		}()
	}
	if fired != 1 {
		t.Fatalf("rank kill fired %d times, want exactly once", fired)
	}
	if s := in.Stats(); s.RanksKilled != 1 {
		t.Fatalf("stats: %+v", s)
	}
}

func TestPanelKillTargetsPanelOnce(t *testing.T) {
	in := NewInjector(&FaultPlan{KillRank: 3, KillAtPanel: 3}) // rank 2, panel 2
	in.RankFault(2)                                            // deferred to the panel site: must not fire
	in.PanelKill(2, 0)                                         // wrong panel
	in.PanelKill(1, 2)                                         // wrong rank
	fired := 0
	for i := 0; i < 3; i++ {
		func() {
			defer func() {
				if recover() != nil {
					fired++
				}
			}()
			in.PanelKill(2, 2)
		}()
	}
	if fired != 1 {
		t.Fatalf("panel kill fired %d times, want exactly once", fired)
	}
	if s := in.Stats(); s.RanksKilled != 1 {
		t.Fatalf("stats: %+v", s)
	}
}

func TestStatsCountInjections(t *testing.T) {
	in := NewInjector(&FaultPlan{Seed: 5, TaskPanics: 1, DelayMessages: 1, MessageDelay: time.Microsecond})
	for id := 0; id < 20; id++ {
		func() {
			defer func() { _ = recover() }()
			in.TaskHook(20, id)
		}()
	}
	for i := 0; i < 100; i++ {
		in.MessageFault(0, 1, i, 0)
	}
	s := in.Stats()
	if s.TaskPanics != 1 || s.MessagesDelayed != 1 {
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
		{FaultPlan{DropMessages: -1}, "DropMessages"},
		{FaultPlan{DelayMessages: -1}, "DelayMessages"},
		{FaultPlan{MessageDelay: -time.Second}, "MessageDelay"},
		{FaultPlan{CompressMisses: -1}, "CompressMisses"},
		{FaultPlan{KillRank: -1}, "KillRank"},
		{FaultPlan{KillRank: 1, KillAtPanel: -1}, "KillAtPanel"},
		{FaultPlan{KillAtPanel: 2}, "KillAtPanel"},
	} {
		err := tc.plan.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Validate(%+v) = %v, want mention of %s", tc.plan, err, tc.want)
		}
	}
	ok := FaultPlan{Seed: 1, TaskPanics: 2, DropMessages: 1, KillRank: 3}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
}
