package main

import (
	"math"
	"sort"
	"time"
)

// sorted returns an ascending copy of v.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of v (mean of the two middle values for an
// even count), 0 for an empty slice.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the three cut points Python's
// statistics.quantiles(v, n=4) gives (the default "exclusive" method), so the
// spread -compare reports is the spread the acceptance rule is stated in.
// It needs at least two values; with fewer all three equal the single value.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sorted(v)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		// As CPython: position i*(n+1)/4 clamped to 1..n-1, then the exact
		// integer remainder, which extrapolates past the ends for tiny n.
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(v []float64) float64 {
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / q2)
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of v.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	rank := nearestRank(len(s), p)
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// p99 is the 99th percentile of v.
func p99(v []float64) float64 { return percentile(v, 99) }

// tailLadder are the percentiles a timing may be reported at, ascending.
var tailLadder = []float64{75, 90, 95, 99, 99.9}

// tailPercentile returns the highest percentile of the ladder that still has
// at least ten samples beyond it among n samples, and false when even the
// lowest rung has fewer (then only the median is reported).
func tailPercentile(n int) (p float64, ok bool) {
	for _, cand := range tailLadder {
		if beyond(n, cand) >= 10 {
			p, ok = cand, true
		}
	}
	return p, ok
}

// beyond counts the samples strictly above the nearest-rank p-th percentile
// position among n samples.
func beyond(n int, p float64) int { return n - nearestRank(n, p) }

// nearestRank is ceil(p/100·n), computed so that a product that is a whole
// number in exact arithmetic (99.9% of 10000) is not pushed up by rounding.
func nearestRank(n int, p float64) int {
	return int(math.Ceil(p/100*float64(n) - 1e-9))
}

// timing summarises a set of duration samples the way every timing is
// reported: the median, and the highest supported tail percentile.
type timing struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	TailP  float64 `json:"tail_p,omitempty"`
	Tail   float64 `json:"tail,omitempty"`
}

func summarise(v []float64) timing {
	t := timing{N: len(v), Median: median(v)}
	if p, ok := tailPercentile(len(v)); ok {
		t.TailP, t.Tail = p, percentile(v, p)
	}
	return t
}

// best is the fastest of a set of times. A compute timing on a shared sandbox
// is its true cost plus interference, and interference only ever adds, so the
// smallest sample is the steadiest estimate of the cost; a regression moves
// every sample, the smallest included.
func best(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return sorted(v)[0]
}

// largest is best for a rate: the biggest sample, 0 of none.
func largest(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return sorted(v)[len(v)-1]
}

func seconds(d time.Duration) float64 { return d.Seconds() }
func millis(d time.Duration) float64  { return float64(d) / float64(time.Millisecond) }
func micros(d time.Duration) float64  { return float64(d) / float64(time.Microsecond) }
