package main

import "testing"

func TestMedianAndQuartilesMatchPython(t *testing.T) {
	// Expected values are statistics.median and statistics.quantiles(v, n=4).
	cases := []struct {
		v          []float64
		q1, q2, q3 float64
	}{
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		{[]float64{20, 10}, 7.5, 15, 22.5},
		{[]float64{1, 2, 4, 8, 16}, 1.5, 4, 12},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.v)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.v, q1, q2, q3, c.q1, c.q2, c.q3)
		}
		if m := median(c.v); m != c.q2 {
			t.Errorf("median(%v) = %v, want %v", c.v, m, c.q2)
		}
	}
	if got := spread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); got != 1 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	if median(nil) != 0 {
		t.Error("median of nothing must be 0")
	}
}

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{5, 0, false},
		{39, 0, false},  // p75 of 39 leaves 9 beyond
		{40, 75, true},  // p75 of 40 leaves exactly 10
		{100, 90, true}, // p90 leaves 10, p95 leaves 5
		{200, 95, true},
		{999, 95, true}, // p99 of 999 leaves 9
		{1000, 99, true},
		{2400, 99, true}, // 24 beyond p99, 2 beyond p99.9
		{10000, 99.9, true},
	}
	for _, c := range cases {
		p, ok := tailPercentile(c.n)
		if p != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, p, ok, c.want, c.ok)
		}
		if ok && beyond(c.n, p) < 10 {
			t.Errorf("n=%d: p%v has only %d samples beyond it", c.n, p, beyond(c.n, p))
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {99, 99}, {100, 100}, {1, 1}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("percentile(p%v) = %v, want %v", c.p, got, c.want)
		}
	}
	s := summarise(v)
	if s.N != 100 || s.Median != 50.5 || s.TailP != 90 || s.Tail != 90 {
		t.Errorf("summarise = %+v", s)
	}
}

func TestBestAndLargest(t *testing.T) {
	if best([]float64{3, 1, 2}) != 1 || best(nil) != 0 {
		t.Error("best is the smallest sample, 0 of none")
	}
	if largest([]float64{3, 1, 2}) != 3 || largest(nil) != 0 {
		t.Error("largest is the biggest sample, 0 of none")
	}
	if p99([]float64{5, 1, 2}) != 5 {
		t.Error("p99 of three samples is the largest")
	}
}
