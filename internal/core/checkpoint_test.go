package core

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cov"
	"repro/internal/geom"
	"repro/internal/obs"
)

// fitTriple runs Fit on a fresh session so no cached state leaks between the
// reference, truncated, and resumed runs.
func fitTriple(t *testing.T, p *Problem, cfg Config, opts FitOptions) FitResult {
	t.Helper()
	s, err := NewSession(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res, err := s.Fit(opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// A fit killed mid-run (modeled as MaxEvals truncation — the checkpoint file
// an interrupted process leaves behind is exactly a truncated log) must
// resume to the bitwise-identical result of an uninterrupted run.
func TestFitCheckpointResume(t *testing.T) {
	p := smallProblem(t, 80, 5)
	cfg := Config{Mode: TLR, TileSize: 32, Accuracy: 1e-8}
	base := FitOptions{MaxEvals: 40, FixSmoothness: true}

	ref := fitTriple(t, p, cfg, base)
	if ref.Evals <= 15 {
		t.Fatalf("reference converged in %d evals; truncation at 15 would not interrupt anything", ref.Evals)
	}

	ck := filepath.Join(t.TempDir(), "fit.ckpt")
	trunc := base
	trunc.Checkpoint = ck
	trunc.CheckpointEvery = 3
	trunc.MaxEvals = 15
	fitTriple(t, p, cfg, trunc) // interrupted run; leaves the log behind

	resumed := trunc
	resumed.MaxEvals = base.MaxEvals
	got := fitTriple(t, p, cfg, resumed)
	if got != ref {
		t.Fatalf("resumed fit %+v differs from uninterrupted %+v", got, ref)
	}

	// A third run replays the entire finished log: same result again.
	again := fitTriple(t, p, cfg, resumed)
	if again != ref {
		t.Fatalf("full replay %+v differs from %+v", again, ref)
	}
}

// A fit factors once per evaluation of its search: θ̂₁ is kept from the
// evaluation at the optimum. Only a fit whose optimum a checkpoint replayed
// factors once more, to recover θ̂₁, and still reports the same result.
func TestFitFactorsOncePerEvaluation(t *testing.T) {
	p := smallProblem(t, 60, 9)
	cfg := Config{Mode: FullBlock}
	opts := FitOptions{MaxEvals: 12, FixSmoothness: true, Checkpoint: filepath.Join(t.TempDir(), "fit.ckpt")}
	before := obs.Default().Snapshot()
	ref := fitTriple(t, p, cfg, opts)
	if runs := factorRuns(before); runs != int64(ref.Evals) {
		t.Fatalf("%d factorizations for %d evaluations", runs, ref.Evals)
	}
	before = obs.Default().Snapshot()
	again := fitTriple(t, p, cfg, opts) // replays the whole log
	if runs := factorRuns(before); runs != 1 {
		t.Fatalf("a fully replayed fit ran %d factorizations, want 1", runs)
	}
	if again != ref {
		t.Fatalf("replayed fit %+v differs from %+v", again, ref)
	}
}

// A checkpoint recorded for different data or options must be refused, not
// silently replayed.
func TestFitCheckpointDigestMismatch(t *testing.T) {
	cfg := Config{Mode: FullBlock}
	ck := filepath.Join(t.TempDir(), "fit.ckpt")
	opts := FitOptions{MaxEvals: 10, FixSmoothness: true, Checkpoint: ck}
	fitTriple(t, smallProblem(t, 60, 7), cfg, opts)

	other := smallProblem(t, 60, 8) // same shape, different data
	s, err := NewSession(other, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Fit(opts); err == nil || !strings.Contains(err.Error(), "different problem") {
		t.Fatalf("digest mismatch not detected: %v", err)
	}

	// Changed result-affecting option on the same data: also refused.
	s2, err := NewSession(smallProblem(t, 60, 7), cfg)
	if err != nil {
		t.Fatal(err)
	}
	bad := opts
	bad.TolX = 1e-6
	if _, err := s2.Fit(bad); err == nil || !strings.Contains(err.Error(), "different problem") {
		t.Fatalf("option mismatch not detected: %v", err)
	}
}

// goldenProblem is a dataset built from integer arithmetic alone, so its
// bytes — and with them fitDigest — are the same on every platform.
func goldenProblem(t *testing.T) *Problem {
	t.Helper()
	pts := make([]geom.Point, 48)
	z := make([]float64, 48)
	for i := range pts {
		pts[i] = geom.Point{X: float64(i%7) / 7, Y: float64(i%5) / 5}
		z[i] = float64(i%11) - 5
	}
	p, err := NewProblemOrdered(pts, z, geom.Euclidean, geom.None)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// The digest is the checkpoint format's compatibility contract: a log written
// by an earlier binary resumes only if this binary hashes the same problem
// and options to the same value. The constant was recorded at commit
// f017d1f, when Config still had a NuggetEscalation field (default 10) in the
// hashed slot the constant now fills, for a fit with FitOptions.Profiled set:
// every fit concentrates θ₁ out now, so those logs resume whether or not the
// field is set. The constant a 3-D fit hashed to (0x2ff6660e6d5d997e) is gone
// on purpose: that search no longer exists, and its logs must be refused
// rather than replayed into a different objective. The constant was
// re-recorded (from 0xf200d7fc577f053c) when a TLR session with an empty
// Config.Ordering began to evaluate on KD-block cells at its TileSize: the
// digest hashes the session's points, and a log of a Morton-ordered TLR fit
// holds likelihoods of different bits, which must not be replayed.
func TestFitDigestGolden(t *testing.T) {
	s, err := NewSession(goldenProblem(t), Config{Mode: TLR, TileSize: 16, Accuracy: 1e-8, CompressorName: "rsvd", Nugget: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	o := FitOptions{
		Start: cov.Params{Variance: 1, Range: 0.1, Smoothness: 0.5},
		Lower: cov.Params{Variance: 0.01, Range: 0.01, Smoothness: 0.1},
		Upper: cov.Params{Variance: 10, Range: 2, Smoothness: 2},
		TolX:  1e-3, FixSmoothness: true,
	}
	const want = uint64(0x57413ba601bcbf14)
	for _, profiled := range []bool{false, true} {
		o.Profiled = profiled
		if got := s.fitDigest(o); got != want {
			t.Errorf("Profiled=%v: fitDigest = %016x, want %016x: checkpoints written before this change no longer resume", profiled, got, want)
		}
	}
}

// fuzzDigest and fuzzX are what FuzzOpenCheckpoint opens and probes every
// input with; the seed corpus is written against them.
const fuzzDigest = 0x0123456789abcdef

var fuzzX = []float64{0.5, -1.25}

// FuzzOpenCheckpoint feeds arbitrary bytes to the checkpoint loader. It must
// return an error or a log, never panic; and a log, whatever it holds, must
// replay a value only for an x that matches the record bitwise — anything
// else ends the replay and truncates the stale tail.
func FuzzOpenCheckpoint(f *testing.F) {
	x0, x1, val := hexFloat(fuzzX[0]), hexFloat(fuzzX[1]), hexFloat(-321.5)
	digest := fmt.Sprintf("%016x", uint64(fuzzDigest))
	for _, seed := range []string{
		`{"digest":"` + digest + `","evals":[["` + x0 + `","` + x1 + `","` + val + `"],["` + x1 + `","` + x0 + `","` + val + `"]]}`,
		`{"digest":"` + digest + `","evals":[["` + x0 + `","` + val + `"]]}`,
		`{"digest":"` + digest + `","evals":[["zz","` + x1 + `","` + val + `"]]}`,
		`{"digest":"` + digest + `","evals":[["` + x0 + `","` + x1 + `","-1"]]}`,
		`{"digest":"` + digest + `","evals":[null]}`,
		`{"digest":"` + digest + `","evals":[["` + x0 + `","` + x1 + `"`,
		`{"digest":"0000000000000000","evals":[]}`,
		`{"digest":7}`,
		`[]`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		path := filepath.Join(t.TempDir(), "fit.ckpt")
		if err := os.WriteFile(path, raw, 0o600); err != nil {
			t.Fatal(err)
		}
		c, err := openCheckpoint(FitOptions{Checkpoint: path, CheckpointEvery: 10}, fuzzDigest)
		if err != nil {
			return
		}
		if c == nil {
			t.Fatal("checkpointing is on: want a log or an error")
		}
		recorded := c.recorded
		for i := 0; i <= recorded; i++ {
			var rec []string
			if i < len(c.evals) {
				rec = c.evals[i]
			}
			v, ok := c.lookup(fuzzX)
			if !ok {
				if c.replay != c.recorded || len(c.evals) != c.recorded {
					t.Fatalf("divergence at %d left replay=%d recorded=%d len=%d", i, c.replay, c.recorded, len(c.evals))
				}
				if _, again := c.lookup(fuzzX); again {
					t.Fatal("replay resumed after it diverged")
				}
				return
			}
			if len(rec) != 3 || !sameFloat(rec[0], fuzzX[0]) || !sameFloat(rec[1], fuzzX[1]) || !sameFloat(rec[2], v) {
				t.Fatalf("record %d %q replayed %v for x=%v", i, rec, v, fuzzX)
			}
		}
		t.Fatalf("replayed %d values from %d records", recorded+1, recorded)
	})
}

// sameFloat reports whether s is the hex of f's IEEE bits.
func sameFloat(s string, f float64) bool {
	v, err := unhexFloat(s)
	return err == nil && math.Float64bits(v) == math.Float64bits(f)
}
