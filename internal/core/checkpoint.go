// Fit checkpoint/restart: a bit-exact log of the optimizer's likelihood
// evaluations, flushed atomically on a cadence so a run killed mid-fit can
// resume. The optimizer (Nelder–Mead) is deterministic — same start, same
// bounds, same objective values → same trajectory — so resuming means
// replaying the recorded (x, ℓ) pairs instead of recomputing them; the
// resumed run reaches bitwise-identical results at a cost of zero
// factorizations for the replayed prefix.
//
// The log is guarded by a digest over the dataset and every result-affecting
// option, so a checkpoint can never silently replay a foreign run. MaxEvals
// is deliberately excluded: extending a truncated fit is the whole point of
// resuming.
package core

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"strconv"

	"repro/internal/dataio"
	"repro/internal/obs"
)

// Checkpoint replay counters: evaluations answered from the log (hit) vs
// computed and appended (miss).
var (
	cntCkptReplay = obs.GetCounter("core.checkpoint.replay")
	cntCkptEval   = obs.GetCounter("core.checkpoint.eval")
)

// fitDigest fingerprints everything that determines the optimizer's
// trajectory: the session's dataset (post-ordering, so the bytes the evaluator
// actually sees), the result-affecting config knobs, and the fit options.
// MaxEvals is excluded (truncation point, not trajectory); MemBudget,
// SpillDir and Workers are excluded because out-of-core execution and worker
// count are bitwise-invariant (the OOC test suite holds that line).
func (s *Session) fitDigest(o FitOptions) uint64 {
	h := fnv.New64a()
	var b [8]byte
	w := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	wf := func(f float64) { w(math.Float64bits(f)) }
	ws := func(s string) { h.Write([]byte(s)); h.Write([]byte{0}) }

	for _, p := range s.p.Points {
		wf(p.X)
		wf(p.Y)
	}
	for _, z := range s.p.Z {
		wf(z)
	}
	w(uint64(s.p.Metric))

	c := s.cfg
	w(uint64(c.Mode))
	w(uint64(c.TileSize))
	wf(c.Accuracy)
	ws(c.CompressorName)
	wf(c.Nugget)
	// Was Config.NuggetEscalation: hashing the constant in its slot keeps
	// checkpoints written before the field was removed resumable.
	wf(nuggetEscalation)
	w(uint64(c.Ranks))

	for _, t := range []float64{
		o.Start.Variance, o.Start.Range, o.Start.Smoothness,
		o.Lower.Variance, o.Lower.Range, o.Lower.Smoothness,
		o.Upper.Variance, o.Upper.Range, o.Upper.Smoothness,
		o.TolX,
	} {
		wf(t)
	}
	flags := uint64(0)
	if o.FixSmoothness {
		flags |= 1
	}
	if o.Profiled {
		flags |= 2
	}
	w(flags)
	return h.Sum64()
}

// fitCheckpoint is the on-disk format. Every float64 travels as the hex of
// its IEEE bits, so a JSON round trip is lossless and the replayed objective
// values are the recorded ones to the last bit.
type fitCheckpoint struct {
	Digest string     `json:"digest"`
	Evals  [][]string `json:"evals"` // each entry: x₀ … x_{d-1}, f
}

// ckptLog is the in-memory side: the recorded prefix being replayed plus the
// evaluations appended live, flushed atomically every `every` appends.
type ckptLog struct {
	path     string
	every    int
	digest   uint64
	evals    [][]string
	recorded int // evals[:recorded] came from disk and are replayable
	replay   int // next replay index into the recorded prefix
	dirty    int // appends since the last flush
}

// openCheckpoint loads (or initializes) the fit checkpoint o selects.
// Returns (nil, nil) when checkpointing is off. A file whose digest does not
// match is an error: replaying a log recorded for different data or options
// would produce silently wrong results.
func openCheckpoint(o FitOptions, digest uint64) (*ckptLog, error) {
	if o.Checkpoint == "" {
		return nil, nil
	}
	c := &ckptLog{path: o.Checkpoint, every: o.CheckpointEvery, digest: digest}
	raw, err := os.ReadFile(o.Checkpoint)
	if os.IsNotExist(err) {
		return c, nil
	}
	if err != nil {
		return nil, fmt.Errorf("core: checkpoint: %w", err)
	}
	var f fitCheckpoint
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("core: checkpoint %s: %w", o.Checkpoint, err)
	}
	if f.Digest != fmt.Sprintf("%016x", digest) {
		return nil, fmt.Errorf("core: checkpoint %s was recorded for a different problem or options (digest %s, want %016x)",
			o.Checkpoint, f.Digest, digest)
	}
	for i, e := range f.Evals {
		if len(e) < 2 {
			return nil, fmt.Errorf("core: checkpoint %s: malformed eval %d", o.Checkpoint, i)
		}
	}
	c.evals = f.Evals
	c.recorded = len(f.Evals)
	return c, nil
}

// wrap interposes the log on the optimizer's objective: recorded
// evaluations replay from the log, fresh ones are computed and appended.
func (c *ckptLog) wrap(obj func([]float64) float64) func([]float64) float64 {
	return func(x []float64) float64 {
		if f, ok := c.lookup(x); ok {
			cntCkptReplay.Inc()
			return f
		}
		cntCkptEval.Inc()
		f := obj(x)
		c.append(x, f)
		return f
	}
}

// lookup replays the next recorded evaluation when its x matches bitwise.
// The first divergence ends replay for good and truncates the stale tail —
// the trajectory from here on is a different run's.
func (c *ckptLog) lookup(x []float64) (float64, bool) {
	if c.replay >= c.recorded {
		return 0, false
	}
	rec := c.evals[c.replay]
	if len(rec) != len(x)+1 {
		c.divergeAt(c.replay)
		return 0, false
	}
	for i, xi := range x {
		if v, err := unhexFloat(rec[i]); err != nil || v != xi {
			c.divergeAt(c.replay)
			return 0, false
		}
	}
	f, err := unhexFloat(rec[len(x)])
	if err != nil {
		c.divergeAt(c.replay)
		return 0, false
	}
	c.replay++
	return f, true
}

func (c *ckptLog) divergeAt(i int) {
	c.evals = c.evals[:i]
	c.recorded = i
	c.replay = i
	c.dirty++ // the truncation must reach disk
}

func (c *ckptLog) append(x []float64, f float64) {
	e := make([]string, 0, len(x)+1)
	for _, xi := range x {
		e = append(e, hexFloat(xi))
	}
	e = append(e, hexFloat(f))
	c.evals = append(c.evals, e)
	c.dirty++
	if c.dirty >= c.every {
		// Flush errors surface on the final flush; a failed periodic write
		// only costs resume granularity, not correctness.
		_ = c.flush()
	}
}

// flush writes the whole log atomically (temp + sync + rename). Safe on a
// nil receiver so call sites need no checkpointing-enabled branch.
func (c *ckptLog) flush() error {
	if c == nil || (c.dirty == 0 && c.fileExists()) {
		return nil
	}
	f := fitCheckpoint{Digest: fmt.Sprintf("%016x", c.digest), Evals: c.evals}
	err := dataio.AtomicWriteFile(c.path, func(w io.Writer) error {
		return json.NewEncoder(w).Encode(&f)
	})
	if err != nil {
		return fmt.Errorf("core: checkpoint: %w", err)
	}
	c.dirty = 0
	return nil
}

func (c *ckptLog) fileExists() bool {
	_, err := os.Stat(c.path)
	return err == nil
}

func hexFloat(f float64) string {
	return strconv.FormatUint(math.Float64bits(f), 16)
}

func unhexFloat(s string) (float64, error) {
	u, err := strconv.ParseUint(s, 16, 64)
	return math.Float64frombits(u), err
}
