package runtime

import (
	"sync"
	"sync/atomic"
	"testing"
)

// pinRecorder instruments a handle's residency hooks.
type pinRecorder struct {
	mu         sync.Mutex
	pins       int
	unpins     int
	overwrites []bool
	resident   bool
}

func (p *pinRecorder) install(h *Handle) {
	h.PinFn = func(overwrite bool) {
		p.mu.Lock()
		defer p.mu.Unlock()
		p.pins++
		p.overwrites = append(p.overwrites, overwrite)
		p.resident = true
	}
	h.UnpinFn = func() {
		p.mu.Lock()
		defer p.mu.Unlock()
		p.unpins++
	}
}

func TestExecutePinsHandlesAroundTasks(t *testing.T) {
	g := NewGraph()
	rw := g.NewHandle("rw", 8, 0)
	wo := g.NewHandle("wo", 8, 0)
	var rwRec, woRec pinRecorder
	rwRec.install(rw)
	woRec.install(wo)

	ran := false
	g.AddTask(Task{
		Name: "t",
		Run: func() {
			// Both handles must be resident while the body runs.
			rwRec.mu.Lock()
			woRec.mu.Lock()
			if !rwRec.resident || !woRec.resident {
				t.Error("task body ran with unpinned handle")
			}
			woRec.mu.Unlock()
			rwRec.mu.Unlock()
			ran = true
		},
		Accesses: []Access{{rw, ReadWrite}, {wo, Write}},
	})
	if err := g.Execute(ExecOptions{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("task did not run")
	}
	if rwRec.pins != 1 || rwRec.unpins != 1 || woRec.pins != 1 || woRec.unpins != 1 {
		t.Fatalf("want one pin/unpin per handle, got rw %d/%d wo %d/%d",
			rwRec.pins, rwRec.unpins, woRec.pins, woRec.unpins)
	}
	// ReadWrite access: payload must be loaded (overwrite=false). Write-only
	// access: the store may skip the disk read (overwrite=true).
	if rwRec.overwrites[0] {
		t.Fatal("ReadWrite handle pinned in overwrite mode")
	}
	if !woRec.overwrites[0] {
		t.Fatal("write-only handle should pin in overwrite mode")
	}
}

// A task that panics must still release its pins — otherwise an out-of-core
// store could never evict the tiles of an aborted run — and re-executing the
// graph pins them afresh.
func TestPinReleasedWhenTaskPanics(t *testing.T) {
	g := NewGraph()
	h := g.NewHandle("h", 8, 0)
	var rec pinRecorder
	rec.install(h)

	var runs atomic.Int32
	g.AddTask(Task{
		Name: "flaky",
		Run: func() {
			if runs.Add(1) == 1 {
				panic("first execution fails")
			}
		},
		Accesses: []Access{{h, ReadWrite}},
	})
	if err := g.Execute(ExecOptions{Workers: 1}); err == nil {
		t.Fatal("the panic must abort the graph")
	}
	if rec.pins != 1 || rec.unpins != 1 {
		t.Fatalf("aborted run leaked a pin: pins=%d unpins=%d", rec.pins, rec.unpins)
	}
	if err := g.Execute(ExecOptions{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	if runs.Load() != 2 || rec.pins != 2 || rec.unpins != 2 {
		t.Fatalf("re-execution: runs=%d pins=%d unpins=%d, want 2 of each", runs.Load(), rec.pins, rec.unpins)
	}
}

func TestPinDedupAcrossAccesses(t *testing.T) {
	g := NewGraph()
	h := g.NewHandle("h", 8, 0)
	var rec pinRecorder
	rec.install(h)
	g.AddTask(Task{
		Name:     "t",
		Run:      func() {},
		Accesses: []Access{{h, Read}, {h, Write}},
	})
	if err := g.Execute(ExecOptions{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	if rec.pins != 1 || rec.unpins != 1 {
		t.Fatalf("duplicate accesses must pin once: pins=%d unpins=%d", rec.pins, rec.unpins)
	}
	// Mixed Read+Write access is NOT overwrite-only.
	if rec.overwrites[0] {
		t.Fatal("mixed-mode access pinned in overwrite mode")
	}
}
