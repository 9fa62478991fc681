package main

import (
	"testing"
	"time"
)

func mk(id, parent int, start, end int) *span {
	return &span{ID: id, Parent: parent, Run: 1, Name: "s", Start: time.Duration(start), End: time.Duration(end)}
}

func TestSelfTime(t *testing.T) {
	spans := []*span{
		mk(1, 0, 0, 100), // root
		mk(2, 1, 10, 30), // adjacent children …
		mk(3, 1, 30, 50),
		mk(4, 1, 60, 90), // … and one with nested work
		mk(5, 4, 65, 70),
		mk(6, 4, 68, 80), // overlaps 5: parallel parts count once
		mk(7, 4, 85, 95), // runs past its parent: clipped at 90
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{
		1: 100 - (20 + 20 + 30), // gaps 0-10, 50-60, 90-100
		2: 20, 3: 20,
		4: 30 - (15 + 5), // children cover 65-80 and 85-90
		5: 5, 6: 12, 7: 10,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
}

func TestRecorderNestsAndNilRecorderIsFree(t *testing.T) {
	r := newRecorder()
	run := r.newRun()
	var inner *span
	d := r.timed(nil, run, "outer", func(sp *span) {
		inner = r.start(sp, 0, "inner")
		time.Sleep(2 * time.Millisecond)
		inner.end()
	})
	if len(r.spans) != 2 || inner.Parent != r.spans[0].ID || inner.Run != run {
		t.Fatalf("spans %+v: inner must hang under outer and share its run", r.spans)
	}
	if d < 2*time.Millisecond || r.spans[0].End-r.spans[0].Start < inner.End-inner.Start {
		t.Errorf("outer %v must cover inner %v", d, inner.End-inner.Start)
	}
	if self := selfTimes(r.spans); self[r.spans[0].ID] > self[inner.ID] {
		t.Errorf("outer did nothing itself, self times %v", self)
	}

	var off *recorder
	if off.newRun() != 0 || off.start(nil, 0, "x") != nil {
		t.Error("a nil recorder must hand out nothing")
	}
	if d := off.timed(nil, 0, "x", func(sp *span) {
		if sp != nil {
			t.Error("untraced pass got a span")
		}
		time.Sleep(time.Millisecond)
	}); d < time.Millisecond {
		t.Errorf("timed must still time on the untraced pass, got %v", d)
	}
}
