// Package chaos provides deterministic, seeded fault injection for the
// execution layers. A fault strikes a task of the generate+factor DAG on
// whichever executor runs it — a panic or a slowdown on the shared-memory
// worker pool and on the ranks alike, and a rank kill on the ranks — or
// forces a compression-tolerance miss in the TLR generation pipeline.
//
// The package deliberately imports nothing from runtime/mpi/tlr/core — those
// layers expose nil-by-default func fields (runtime.ExecOptions.Inject and
// mpi.DistTLR.Inject, both func(graphLen, taskID int), and
// tlr.GenSpec.ForceMiss) and core adapts an Injector onto them, so the happy
// path pays a single nil check per hook site and the dependency graph stays
// acyclic.
//
// Every victim choice derives from FaultPlan.Seed through SplitMix64-style
// hashing of stable coordinates (task IDs, tile indices), never from
// wall-clock time or execution order, so a given plan injects the same
// faults run after run.
package chaos

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjected marks every fault the injector raises, so recovery layers and
// tests can tell injected faults from organic ones with errors.Is.
var ErrInjected = errors.New("chaos: injected fault")

// FaultPlan is a declarative, seeded set of faults to inject. The zero value
// injects nothing; counts are budgets (total injections per Injector, i.e.
// per session), not rates.
type FaultPlan struct {
	// Seed parameterizes every victim choice. Two injectors with the same
	// plan pick the same victims; vary Seed to explore different placements.
	Seed uint64

	// TaskPanics is the number of task executions to kill with an injected
	// panic (each victim fires once per Injector — a re-run of its graph
	// succeeds, which is what lets a replayed evaluation prove recovery). On
	// ranks the panic is the death of the rank that runs the task.
	TaskPanics int
	// TaskDelays is the number of task executions to slow down by TaskDelay
	// (straggler injection; on ranks, a straggler rank).
	TaskDelays int
	// TaskDelay is the injected straggler duration (0 = 200µs).
	TaskDelay time.Duration

	// CompressMisses is the number of off-diagonal TLR tiles forced to miss
	// the compression tolerance and fall back to dense (DE) storage. Unlike
	// the other faults this one changes the numerical representation (the
	// fallback is exact where the compression was approximate), so it is
	// excluded from bitwise-determinism comparisons.
	CompressMisses int

	// KillRank, when positive, kills rank KillRank-1 (one-based so the zero
	// value means "no kill") once, with a panic — the rank-failure drill.
	KillRank int
	// KillAtTask places the kill: the victim dies before the first task it
	// owns whose ID in the generate+factor DAG is ≥ KillAtTask, so 0 is its
	// first task. A value it owns no such task for — the DAG's length, say —
	// kills it at its first operation on the finished factor. Requires
	// KillRank.
	KillAtTask int
}

// Validate rejects negative budgets and durations with field-naming errors.
func (p *FaultPlan) Validate() error {
	if p.TaskPanics < 0 {
		return fmt.Errorf("chaos: negative TaskPanics %d", p.TaskPanics)
	}
	if p.TaskDelays < 0 {
		return fmt.Errorf("chaos: negative TaskDelays %d", p.TaskDelays)
	}
	if p.TaskDelay < 0 {
		return fmt.Errorf("chaos: negative TaskDelay %v", p.TaskDelay)
	}
	if p.CompressMisses < 0 {
		return fmt.Errorf("chaos: negative CompressMisses %d", p.CompressMisses)
	}
	if p.KillRank < 0 {
		return fmt.Errorf("chaos: negative KillRank %d", p.KillRank)
	}
	if p.KillAtTask < 0 {
		return fmt.Errorf("chaos: negative KillAtTask %d", p.KillAtTask)
	}
	if p.KillAtTask > 0 && p.KillRank == 0 {
		return fmt.Errorf("chaos: KillAtTask=%d without KillRank", p.KillAtTask)
	}
	return nil
}

// Stats counts the faults an Injector actually raised.
type Stats struct {
	TaskPanics     int64
	TaskDelays     int64
	CompressMisses int64
	RanksKilled    int64
}

// Injector is the stateful executor of one FaultPlan. It is safe for
// concurrent use from every worker and rank goroutine of a session.
type Injector struct {
	plan FaultPlan

	mu      sync.Mutex
	victims map[int]*victimSet   // graph length -> task victim choice
	misses  map[int]map[int]bool // tile count mt -> forced-miss linear indices

	panics atomic.Int64
	delays atomic.Int64
	miss   atomic.Int64
	killed atomic.Bool
	kills  atomic.Int64
}

// victimSet fixes which task IDs of a graph of a given length get injected
// panics/delays, and which of those already fired (budgets are per-Injector:
// a victim fires once even though the optimizer re-executes its graph dozens
// of times).
type victimSet struct {
	panicAt map[int]int // task ID -> victim slot
	delayAt map[int]int
	fired   map[int]bool // slot (panics and delays share the space via offset)
}

// NewInjector builds the injector for a validated plan (invalid plans
// panic — Config.Validate rejects them long before this point).
func NewInjector(p *FaultPlan) *Injector {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	plan := *p
	if plan.TaskDelay == 0 {
		plan.TaskDelay = 200 * time.Microsecond
	}
	return &Injector{
		plan:    plan,
		victims: map[int]*victimSet{},
		misses:  map[int]map[int]bool{},
	}
}

// Stats snapshots the injected-fault counts.
func (in *Injector) Stats() Stats {
	return Stats{
		TaskPanics:     in.panics.Load(),
		TaskDelays:     in.delays.Load(),
		CompressMisses: in.miss.Load(),
		RanksKilled:    in.kills.Load(),
	}
}

// mix is a SplitMix64-style avalanche of an arbitrary coordinate list into
// the plan seed.
func (in *Injector) mix(parts ...uint64) uint64 {
	z := in.plan.Seed ^ 0x9e3779b97f4a7c15
	for _, p := range parts {
		z ^= p
		z += 0x9e3779b97f4a7c15
		z ^= z >> 30
		z *= 0xbf58476d1ce4e5b9
		z ^= z >> 27
		z *= 0x94d049bb133111eb
		z ^= z >> 31
	}
	return z
}

// pickDistinct selects count distinct values in [0, n) from hash stream kind,
// resolving collisions by linear probing so the full budget lands even on
// small domains.
func (in *Injector) pickDistinct(kind uint64, count, n int) map[int]int {
	out := make(map[int]int, count)
	if n <= 0 {
		return out
	}
	if count > n {
		count = n
	}
	taken := make(map[int]bool, count)
	for k := 0; k < count; k++ {
		id := int(in.mix(kind, uint64(k)) % uint64(n))
		for taken[id] {
			id = (id + 1) % n
		}
		taken[id] = true
		out[id] = k
	}
	return out
}

func (in *Injector) victimsFor(graphLen int) *victimSet {
	if v, ok := in.victims[graphLen]; ok {
		return v
	}
	v := &victimSet{
		panicAt: in.pickDistinct(1, in.plan.TaskPanics, graphLen),
		delayAt: in.pickDistinct(2, in.plan.TaskDelays, graphLen),
		fired:   map[int]bool{},
	}
	in.victims[graphLen] = v
	return v
}

// TaskHook is the runtime.ExecOptions.Inject adapter: called before every
// task execution, it panics on a panic victim and sleeps on a delay victim.
// Victims are a pure function of (seed, graph length, task ID); each fires
// once per Injector, so re-executing the graph gets past it.
func (in *Injector) TaskHook(graphLen, taskID int) {
	var doPanic, doDelay bool
	in.mu.Lock()
	v := in.victimsFor(graphLen)
	if slot, ok := v.panicAt[taskID]; ok && !v.fired[slot] && in.panics.Load() < int64(in.plan.TaskPanics) {
		v.fired[slot] = true
		in.panics.Add(1)
		doPanic = true
	}
	if slot, ok := v.delayAt[taskID]; ok && !v.fired[graphLen+slot] && in.delays.Load() < int64(in.plan.TaskDelays) {
		v.fired[graphLen+slot] = true
		in.delays.Add(1)
		doDelay = true
	}
	in.mu.Unlock()
	if doDelay {
		time.Sleep(in.plan.TaskDelay)
	}
	if doPanic {
		panic(fmt.Errorf("%w: task %d killed", ErrInjected, taskID))
	}
}

// ForRank is the mpi.DistTLR.Inject adapter for one rank of a World, called
// before every task the rank owns and, with taskID = graphLen, before each
// operation on the finished factor. Every rank gets TaskHook's panics and
// delays; the plan's victim also dies, once per Injector, at its first call
// with taskID ≥ KillAtTask or ≥ graphLen.
func (in *Injector) ForRank(rank int) func(graphLen, taskID int) {
	if in.plan.KillRank != rank+1 {
		return in.TaskHook
	}
	return func(graphLen, taskID int) {
		if taskID >= min(in.plan.KillAtTask, graphLen) && !in.killed.Swap(true) {
			in.kills.Add(1)
			panic(fmt.Errorf("%w: rank %d killed at task %d", ErrInjected, rank, taskID))
		}
		in.TaskHook(graphLen, taskID)
	}
}

// CompressMiss is the tlr.GenSpec.ForceMiss adapter: it reports whether tile
// (i, j) of an mt×mt tiling is one of the CompressMisses strictly-lower tiles
// forced to miss tolerance. Membership is a pure function of (seed, mt, i, j)
// so concurrent generation tasks reach identical verdicts in any order.
func (in *Injector) CompressMiss(mt, i, j int) bool {
	if in.plan.CompressMisses == 0 || j >= i {
		return false
	}
	in.mu.Lock()
	set, ok := in.misses[mt]
	if !ok {
		total := mt * (mt - 1) / 2
		picked := in.pickDistinct(4, in.plan.CompressMisses, total)
		set = make(map[int]bool, len(picked))
		for idx := range picked {
			set[idx] = true
		}
		in.misses[mt] = set
	}
	hit := set[i*(i-1)/2+j]
	in.mu.Unlock()
	if hit {
		in.miss.Add(1)
	}
	return hit
}
