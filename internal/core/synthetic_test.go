package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"repro/internal/cov"
	"repro/internal/geom"
)

// syntheticDigest is FNV-64a over the float bits of points and values, in
// order.
func syntheticDigest(pts [][]geom.Point, zs [][]float64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	for i := range pts {
		for _, p := range pts[i] {
			put(p.X)
			put(p.Y)
		}
		for _, v := range zs[i] {
			put(v)
		}
	}
	return h.Sum64()
}

// The exact datasets keep their bits on any number of cores: Σ is filled,
// factored and multiplied by e on every core, and each of the three is bit
// for bit its one-core self. The digests were recorded when all three ran on
// one core.
func TestGenerateSyntheticGolden(t *testing.T) {
	const (
		wantSynthetic  = 0x6b203514738acb4a
		wantReplicates = 0xb982d074e8dad779
	)
	theta := cov.Params{Variance: 1, Range: 0.1, Smoothness: 0.5}
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		syn, err := GenerateSynthetic(1600, 100, theta, 1)
		if err != nil {
			runtime.GOMAXPROCS(prev)
			t.Fatal(err)
		}
		reps, err := GenerateSyntheticReplicates(1000, 2, theta, 1)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		got := syntheticDigest([][]geom.Point{syn.Train.Points, syn.TestPoints}, [][]float64{syn.Train.Z, syn.TestZ})
		if got != wantSynthetic {
			t.Errorf("GOMAXPROCS=%d: GenerateSynthetic digest %#x, want %#x", procs, got, uint64(wantSynthetic))
		}
		got = syntheticDigest([][]geom.Point{reps[0].Points, reps[1].Points}, [][]float64{reps[0].Z, reps[1].Z})
		if got != wantReplicates {
			t.Errorf("GOMAXPROCS=%d: GenerateSyntheticReplicates digest %#x, want %#x", procs, got, uint64(wantReplicates))
		}
	}
}
