package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/cov"
	"repro/internal/geom"
	"repro/internal/rng"
)

// sizes fixes every input dimension of a run. The full sizes are the
// benchmark; the smoke sizes drive every code path and check in seconds.
type sizes struct {
	FitN, FitTest int // GenerateSynthetic(n, nTest) of the fit and serve dataset
	FitNB         int
	FitEvals      int // FitOptions.MaxEvals: the evaluation budget of the traced fit
	LikN, LikNB   int
	LikEvals      int // timed path points per deployment on the traced pass
	MinRounds     int // measuring rounds of a compute workload, at least
	DirectBlock   int // direct predicts per round
	DirectRounds  int // serve_mixed: direct evaluation+prediction rounds per stretch
	Pool          int // query pool the serve requests draw from
	MeanBatch     int
	VarBatch      int
	VarShare      float64 // share of requests that ask for variances
	Rates         [3]float64
	IngestEvery   time.Duration
	// TailSamples is how many requests an open-loop phase must send for its
	// 99th percentile to have ten samples beyond it.
	TailSamples int
}

var fullSizes = sizes{
	FitN: 1600, FitTest: 100, FitNB: 128, FitEvals: 8,
	LikN: 2400, LikNB: 160, LikEvals: 3, MinRounds: 4, DirectBlock: 275, DirectRounds: 6,
	Pool: 512, MeanBatch: 4, VarBatch: 32, VarShare: 0.10,
	Rates: [3]float64{80, 160, 240}, IngestEvery: 2500 * time.Millisecond, TailSamples: 1050,
}

var smokeSizes = sizes{
	FitN: 400, FitTest: 40, FitNB: 64, FitEvals: 4,
	LikN: 400, LikNB: 64, LikEvals: 2, MinRounds: 2, DirectBlock: 50, DirectRounds: 2,
	Pool: 128, MeanBatch: 4, VarBatch: 32, VarShare: 0.10,
	Rates: [3]float64{80, 160, 240}, IngestEvery: 400 * time.Millisecond,
}

// thetaTrue generates every dataset; thetaServe is the fixed θ of the served
// models (ν = 0.5, the closed-form kernel).
var (
	thetaTrue  = cov.Params{Variance: 1, Range: 0.1, Smoothness: 0.5}
	thetaServe = thetaTrue
)

// Seed streams: one Split id per input family, so adding a family never
// shifts the others.
const (
	streamPool     = 11
	streamSchedule = 12
	streamIngest   = 13
)

// genDataset draws the seeded field: n−nTest training observations (already
// in Morton order inside the Problem) and nTest held-out truths.
func genDataset(n, nTest int, seed uint64) (*core.Synthetic, error) {
	return core.GenerateSynthetic(n, nTest, thetaTrue, seed)
}

// genPool draws the query locations predict requests are cut from.
func genPool(n int, seed uint64) []geom.Point {
	return geom.GeneratePerturbedGrid(n, rng.New(seed).Split(streamPool))
}

// request is one scheduled predict: when it is due, its class, and where in
// the query pool its batch starts.
type request struct {
	Due time.Duration
	Var bool
	Lo  int
}

// genSchedule draws an open-loop arrival schedule: requests paced evenly at
// rate per second for dur from a seeded offset within the first interval (the
// constant-rate pacing of wrk2 and vegeta), each a window of the query pool.
// The class mix is stratified: of every 1/VarShare consecutive requests
// exactly one, at a seeded position, asks for variances. Two seeds therefore
// offer the same load and differ in its order and its batches, which keeps
// the tail percentile of a short phase comparable across seeds. phase
// separates the streams of the phases of one run.
func genSchedule(sz sizes, seed uint64, phase int, rate float64, dur time.Duration) []request {
	r := rng.New(seed).Split(streamSchedule).Split(uint64(phase))
	every := int(math.Round(1 / sz.VarShare))
	var out []request
	offset, slot := r.Float64(), 0
	for i := 0; ; i++ {
		due := time.Duration((offset + float64(i)) / rate * float64(time.Second))
		if due >= dur {
			return out
		}
		if i%every == 0 {
			slot = r.Intn(every)
		}
		q := request{Due: due, Var: i%every == slot}
		// Batch starts are multiples of the batch length, so a run asks for
		// a bounded set of distinct batches and each can be checked against
		// a precomputed oracle answer.
		blen := sz.MeanBatch
		if q.Var {
			blen = sz.VarBatch
		}
		q.Lo = r.Intn(sz.Pool/blen) * blen
		out = append(out, q)
	}
}

// genIngestOffset is the seeded delay before the first background ingest.
func genIngestOffset(sz sizes, seed uint64) time.Duration {
	u := rng.New(seed).Split(streamIngest).Float64()
	return time.Duration((0.25 + 0.5*u) * float64(sz.IngestEvery))
}

// hasher accumulates every generated input of a run, so two runs can be shown
// to have seen the same inputs (same seed) or different ones.
type hasher struct {
	buf []byte
}

func (h *hasher) f64(v ...float64) {
	for _, x := range v {
		h.buf = binary.LittleEndian.AppendUint64(h.buf, math.Float64bits(x))
	}
}

func (h *hasher) points(pts []geom.Point) {
	for _, p := range pts {
		h.f64(p.X, p.Y)
	}
}

func (h *hasher) requests(rs []request) {
	for _, q := range rs {
		v := 0.0
		if q.Var {
			v = 1
		}
		h.f64(float64(q.Due), v, float64(q.Lo))
	}
}

// sum is the digest of everything hashed so far, as 16 hex digits.
func (h *hasher) sum() string {
	d := sha256.Sum256(h.buf)
	return hex.EncodeToString(d[:8])
}

// digestDataset hashes a generated dataset.
func digestDataset(h *hasher, syn *core.Synthetic) {
	h.points(syn.Train.Points)
	h.f64(syn.Train.Z...)
	h.points(syn.TestPoints)
	h.f64(syn.TestZ...)
}
