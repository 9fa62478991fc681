package core

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/cov"
	"repro/internal/tlr"
)

// TestPredictCacheSingleFactorization is the serving-hot-path regression:
// repeated predicts at one θ must factor exactly once, with every further
// call answered from the session's solve-vector cache.
func TestPredictCacheSingleFactorization(t *testing.T) {
	for _, mode := range []Mode{FullBlock, FullTile, TLR} {
		t.Run(mode.String(), func(t *testing.T) {
			syn, err := GenerateSynthetic(300, 20, theta(), 5)
			if err != nil {
				t.Fatal(err)
			}
			s, err := NewSession(syn.Train, Config{Mode: mode, TileSize: 64, Accuracy: 1e-9})
			if err != nil {
				t.Fatal(err)
			}
			want, err := Predict(syn.Train, syn.TestPoints, theta(), Config{Mode: mode, TileSize: 64, Accuracy: 1e-9})
			if err != nil {
				t.Fatal(err)
			}

			runs0 := cntFactorRuns.Value()
			hits0 := cntPredictCacheHit.Value()
			const repeats = 5
			for rep := 0; rep < repeats; rep++ {
				got, err := s.Predict(syn.TestPoints, theta())
				if err != nil {
					t.Fatal(err)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("repeat %d: prediction %d = %g, want %g", rep, i, got[i], want[i])
					}
				}
			}
			if runs := cntFactorRuns.Value() - runs0; runs != 1 {
				t.Fatalf("%d factorizations across %d predicts at one θ, want exactly 1", runs, repeats)
			}
			if hits := cntPredictCacheHit.Value() - hits0; hits != repeats-1 {
				t.Fatalf("%d cache hits, want %d", hits, repeats-1)
			}
		})
	}
}

// TestPredictCacheKeyedByTheta checks the cache misses when θ or the nugget
// changes and the new key's predictions are correct (no stale reuse).
func TestPredictCacheKeyedByTheta(t *testing.T) {
	syn, err := GenerateSynthetic(240, 15, theta(), 6)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Mode: FullBlock}
	s, err := NewSession(syn.Train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	th1 := theta()
	th2 := cov.Params{Variance: th1.Variance * 2, Range: th1.Range, Smoothness: th1.Smoothness}

	runs0 := cntFactorRuns.Value()
	got1, err := s.Predict(syn.TestPoints, th1)
	if err != nil {
		t.Fatal(err)
	}
	got2, err := s.Predict(syn.TestPoints, th2)
	if err != nil {
		t.Fatal(err)
	}
	if runs := cntFactorRuns.Value() - runs0; runs != 2 {
		t.Fatalf("%d factorizations for two distinct θ, want 2", runs)
	}
	want1, err := Predict(syn.Train, syn.TestPoints, th1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want2, err := Predict(syn.Train, syn.TestPoints, th2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want1 {
		if got1[i] != want1[i] || got2[i] != want2[i] {
			t.Fatalf("prediction %d stale after θ switch: got (%g, %g) want (%g, %g)",
				i, got1[i], got2[i], want1[i], want2[i])
		}
	}
}

// TestPredictCacheSurvivesInterleavedEval checks the solve-vector reuse is
// not fooled by an interleaved likelihood evaluation at another θ: the
// cached vector (a private copy) stays valid, while the cached factor
// (which aliases evaluator buffers the evaluation overwrote) is discarded.
func TestPredictCacheSurvivesInterleavedEval(t *testing.T) {
	syn, err := GenerateSynthetic(240, 15, theta(), 7)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(syn.Train, Config{Mode: FullBlock})
	if err != nil {
		t.Fatal(err)
	}
	th := theta()
	other := cov.Params{Variance: 3, Range: 0.2, Smoothness: 1}

	first, err := s.Predict(syn.TestPoints, th)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.LogLikelihood(other); err != nil {
		t.Fatal(err)
	}
	runs0 := cntFactorRuns.Value()
	again, err := s.Predict(syn.TestPoints, th)
	if err != nil {
		t.Fatal(err)
	}
	if runs := cntFactorRuns.Value() - runs0; runs != 0 {
		t.Fatalf("cached solve vector not reused after interleaved evaluation (%d factorizations)", runs)
	}
	for i := range first {
		if first[i] != again[i] {
			t.Fatalf("prediction %d changed across interleaved evaluation: %g vs %g", i, first[i], again[i])
		}
	}

	// The variance path needs the factor, which the interleaved evaluation
	// invalidated — it must refactorize rather than reuse stale buffers.
	pv, err := s.PredictWithVariance(syn.TestPoints, th)
	if err != nil {
		t.Fatal(err)
	}
	want, err := PredictWithVariance(syn.Train, syn.TestPoints, th, Config{Mode: FullBlock})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Mean {
		if pv.Mean[i] != want.Mean[i] || pv.Variance[i] != want.Variance[i] {
			t.Fatalf("variance path %d stale after invalidation", i)
		}
	}
}

// TestPredictThenVarianceSharesFactorization checks the two predict flavors
// share one factorization at a fixed θ in either order.
func TestPredictThenVarianceSharesFactorization(t *testing.T) {
	syn, err := GenerateSynthetic(240, 15, theta(), 8)
	if err != nil {
		t.Fatal(err)
	}
	th := theta()
	for _, firstMean := range []bool{true, false} {
		s, err := NewSession(syn.Train, Config{Mode: FullBlock})
		if err != nil {
			t.Fatal(err)
		}
		runs0 := cntFactorRuns.Value()
		if firstMean {
			if _, err := s.Predict(syn.TestPoints, th); err != nil {
				t.Fatal(err)
			}
			if _, err := s.PredictWithVariance(syn.TestPoints, th); err != nil {
				t.Fatal(err)
			}
		} else {
			if _, err := s.PredictWithVariance(syn.TestPoints, th); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Predict(syn.TestPoints, th); err != nil {
				t.Fatal(err)
			}
		}
		if runs := cntFactorRuns.Value() - runs0; runs != 1 {
			t.Fatalf("mean+variance predicts at one θ (mean first: %v) took %d factorizations, want 1", firstMean, runs)
		}
	}
}

// TestSessionConcurrentPredicts is the proof behind the Session's one lock:
// in every mode, 16 goroutines mixing Predict and PredictWithVariance at the
// warm θ, beside one goroutine evaluating the likelihood at another θ, return
// bit for bit what the same calls return one after the other, and factor no
// more often. Each round ends with one serial predict of the kind the mode
// caches a factor for, so the count does not depend on whether the round's
// evaluation ran before or after its last variance predict: a round costs
// the evaluation's factorization plus, where a factor is cached, exactly one
// to replace the one the evaluation overwrote. Run under -race this is also
// the check that the cached factor is read-only.
func TestSessionConcurrentPredicts(t *testing.T) {
	syn, err := GenerateSynthetic(256, 12, theta(), 15)
	if err != nil {
		t.Fatal(err)
	}
	th := theta()
	other := cov.Params{Variance: 2, Range: 0.05, Smoothness: 0.5}
	tlrCfg := Config{Mode: TLR, TileSize: 64, Accuracy: 1e-6, CompressorName: "rsvd"}
	ooc, dist := tlrCfg, tlrCfg
	ooc.MemBudget, ooc.SpillDir = tlr.MinMemBudget(64, 1), t.TempDir()
	dist.Ranks = 4
	cases := []struct {
		name     string
		cfg      Config
		variance bool // distributed variance predicts factor per call: means only
	}{
		{"full-block", Config{Mode: FullBlock}, true},
		{"full-tile", Config{Mode: FullTile, TileSize: 64, Workers: 2}, true},
		{"tlr", tlrCfg, true},
		{"tlr-membudget", ooc, true},
		{"hodlr", Config{Mode: HODLR, TileSize: 64, Accuracy: 1e-6, CompressorName: "rsvd"}, true},
		{"tlr-ranks4", dist, false},
	}
	const goroutines, rounds = 16, 2
	type answer struct {
		pr  Prediction // Variance nil for a mean predict
		err error
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// predict is goroutine g's call: odd g asks for variances where
			// the mode caches a factor, and each g asks for its own points.
			predict := func(s *Session, g int) answer {
				pts := syn.TestPoints[g%4:]
				if tc.variance && g%2 == 1 {
					pr, err := s.PredictWithVariance(pts, th)
					return answer{pr, err}
				}
				mean, err := s.Predict(pts, th)
				return answer{Prediction{Mean: mean}, err}
			}
			// run warms a fresh session, then plays the rounds, the round's
			// calls at once or one after the other, and returns every answer,
			// every likelihood and the factorizations it took after warm-up.
			run := func(concurrent bool) (got [rounds][goroutines]answer, liks [rounds]LikResult, runs int64) {
				s, err := NewSession(syn.Train, tc.cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				for g := 0; g < 2; g++ {
					if a := predict(s, g); a.err != nil {
						t.Fatal(a.err)
					}
				}
				runs0 := cntFactorRuns.Value()
				for r := 0; r < rounds; r++ {
					var wg sync.WaitGroup
					call := func(f func()) {
						if !concurrent {
							f()
							return
						}
						wg.Add(1)
						go func() {
							defer wg.Done()
							f()
						}()
					}
					call(func() {
						lik, err := s.LogLikelihood(other)
						if err != nil {
							t.Error(err)
						}
						liks[r] = lik
					})
					for g := 0; g < goroutines; g++ {
						call(func() { got[r][g] = predict(s, g) })
					}
					wg.Wait()
					if a := predict(s, 1); a.err != nil {
						t.Fatal(a.err)
					}
				}
				if _, spilled, _ := s.StoreStats(); tc.cfg.MemBudget > 0 && spilled == 0 {
					t.Error("the memory budget never spilled a tile: the row does not test eviction beside readers")
				}
				return got, liks, cntFactorRuns.Value() - runs0
			}

			want, wantLiks, wantRuns := run(false)
			got, gotLiks, gotRuns := run(true)
			for r := range want {
				if gotLiks[r] != wantLiks[r] {
					t.Errorf("round %d: likelihood %+v beside predicts, %+v alone", r, gotLiks[r], wantLiks[r])
				}
				for g := range want[r] {
					w, a := want[r][g], got[r][g]
					if w.err != nil || a.err != nil {
						t.Fatalf("round %d goroutine %d: serial error %v, concurrent error %v", r, g, w.err, a.err)
					}
					if !slices.Equal(a.pr.Mean, w.pr.Mean) || !slices.Equal(a.pr.Variance, w.pr.Variance) {
						t.Errorf("round %d goroutine %d: concurrent answer differs from the serial one", r, g)
					}
				}
			}
			if gotRuns != wantRuns {
				t.Errorf("%d factorizations with concurrent predicts, %d one at a time", gotRuns, wantRuns)
			}
			perRound := int64(1)
			if tc.variance {
				perRound = 2
			}
			if wantRuns != rounds*perRound {
				t.Errorf("%d factorizations over %d serial rounds, want %d a round", wantRuns, rounds, perRound)
			}
		})
	}
}

// BenchmarkSessionPredictCached times the operation the benchmark's
// predict_p50_ms samples on fit_dense: a 4-point mean Predict against the
// cached solve of a full-tile Session at n = 1500 (a 1600-point field less
// 100 held out, whose locations are the queries), at the general-ν table
// and at ν = ½. Each call is one 1500-entry covariance row and one dot
// product per point.
func BenchmarkSessionPredictCached(b *testing.B) {
	for _, nu := range []float64{0.6, 0.5} {
		b.Run(fmt.Sprintf("nu%g", nu), func(b *testing.B) {
			th := cov.Params{Variance: 1, Range: 0.08, Smoothness: nu}
			syn, err := GenerateSynthetic(1600, 100, th, 1)
			if err != nil {
				b.Fatal(err)
			}
			s, err := NewSession(syn.Train, Config{Mode: FullTile, TileSize: 128})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			q := syn.TestPoints
			if _, err := s.Predict(q[:4], th); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lo := 4 * i % (len(q) - 3)
				if _, err := s.Predict(q[lo:lo+4], th); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
