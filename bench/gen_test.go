package main

import (
	"testing"
	"time"
)

// inputDigest hashes every input family a seed generates, at smoke sizes.
func inputDigest(t *testing.T, seed uint64) string {
	t.Helper()
	sz := smokeSizes
	var h hasher
	for _, n := range []int{sz.FitN, sz.LikN + 1} {
		syn, err := genDataset(n, sz.FitTest, seed)
		if err != nil {
			t.Fatal(err)
		}
		digestDataset(&h, syn)
	}
	h.points(genPool(sz.Pool, seed))
	for phase, rate := range sz.Rates {
		h.requests(genSchedule(sz, seed, phase, rate, 2*time.Second))
	}
	h.f64(float64(genIngestOffset(sz, seed)))
	return h.sum()
}

func TestSeedDrivesEveryInput(t *testing.T) {
	a, again, b := inputDigest(t, 7), inputDigest(t, 7), inputDigest(t, 8)
	if a != again {
		t.Errorf("same seed, different inputs: %s vs %s", a, again)
	}
	if a == b {
		t.Errorf("seeds 7 and 8 generated identical inputs (%s)", a)
	}
}

func TestScheduleIsPacedAndStratified(t *testing.T) {
	sz := fullSizes
	sched := genSchedule(sz, 3, 1, 160, 9*time.Second)
	if n := len(sched); n < 1439 || n > 1441 {
		t.Fatalf("%d requests in 9 s at 160 req/s", n)
	}
	vars := 0
	for i, q := range sched {
		if i > 0 {
			if gap := q.Due - sched[i-1].Due; gap < 6*time.Millisecond || gap > 6500*time.Microsecond {
				t.Fatalf("request %d follows after %v, want 6.25 ms", i, gap)
			}
		}
		blen := sz.MeanBatch
		if q.Var {
			vars++
			blen = sz.VarBatch
		}
		if q.Lo%blen != 0 || q.Lo+blen > sz.Pool {
			t.Fatalf("request %d: batch [%d,%d) is not an aligned window of the pool", i, q.Lo, q.Lo+blen)
		}
		if (i+1)%10 == 0 && vars != (i+1)/10 {
			t.Fatalf("after %d requests %d variance requests, want exactly one in ten", i+1, vars)
		}
	}
	other := genSchedule(sz, 4, 1, 160, 9*time.Second)
	same := true
	for i := range min(len(sched), len(other)) {
		same = same && sched[i].Var == other[i].Var && sched[i].Lo == other[i].Lo
	}
	if same {
		t.Error("two seeds drew the same mix and batches")
	}
	if off := genIngestOffset(sz, 3); off < sz.IngestEvery/4 || off >= 3*sz.IngestEvery/4 {
		t.Errorf("ingest offset %v outside [¼, ¾) of the period", off)
	}
}
