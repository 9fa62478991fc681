package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/cov"
	"repro/internal/geom"
	"repro/internal/la"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/tlr"
)

// The equivalence oracle's fixed shape: the seed its rows are drawn from, n
// observations, and P workers.
const (
	oracleSeed    = 26
	oracleN       = 192
	oracleWorkers = 2
)

// ranksBlockSolveTol is the one tolerance the oracle keeps, in units of the
// quantity's accuracyBound scale: a solve of more than one column on ranks
// forms each remote contribution in a zeroed buffer and adds it, where shared
// memory accumulates in place, so PredictWithVariance on ranks is not
// promised the shared-memory bits (a one-column solve is: 0 + v is v).
const ranksBlockSolveTol = 1e-9

// oracleRand is the oracle's one seeded source, with a typed constructor for
// each thing a row is made of.
type oracleRand struct{ *rng.Rand }

// points draws n locations: the paper's jittered grid ("uniform") or six
// tight Gaussian blobs ("clustered"), in the order generated.
func (r oracleRand) points(geometry string, n int) []geom.Point {
	if geometry == "clustered" {
		return geom.GenerateClustered(n, 6, 0.03, r.Rand)
	}
	return geom.GeneratePerturbedGrid(n, r.Rand)
}

// theta draws θ at ν = ½, the closed-form exponential kernel, or at a
// general ν, which goes through the correlation table.
func (r oracleRand) theta(nu string) cov.Params {
	th := cov.Params{Variance: r.Uniform(0.5, 2), Range: r.Uniform(0.05, 0.12), Smoothness: 0.5}
	if nu == "general" {
		th.Smoothness = r.Uniform(0.6, 1.1)
	}
	return th
}

// field samples one realization of the field under th at pts.
func (r oracleRand) field(t *testing.T, pts []geom.Point, th cov.Params) []float64 {
	t.Helper()
	z, err := cov.SampleField(cov.NewKernel(th), pts, geom.Euclidean, r.Split(1))
	if err != nil {
		t.Fatal(err)
	}
	return z
}

// queries draws a batch of m prediction locations.
func (r oracleRand) queries(m int) []geom.Point { return geom.GeneratePerturbedGrid(m, r.Rand) }

// oracleRow is one input of the oracle: a seed and one value of each axis.
type oracleRow struct {
	seed                               uint64
	geometry, nu, ordering, compressor string
	nb                                 int
}

func (r oracleRow) String() string {
	return fmt.Sprintf("seed%d-%s-nu_%s-nb%d-%s-%s", r.seed, r.geometry, r.nu, r.nb, r.ordering, r.compressor)
}

// oracleRows draws the rows from oracleSeed. Every axis is dealt out in a
// seeded order over as many rows as the longest axis has values, so each
// value of each axis meets every way to factor at least once.
func oracleRows() []oracleRow {
	src := oracleRand{rng.New(oracleSeed)}
	geometries := []string{"uniform", "clustered"}
	nus := []string{"half", "general"}
	nbs := []int{48, 40} // 48 divides oracleN, 40 leaves a ragged last tile
	orderings := geom.OrderingNames()
	// svd, the reference, is dealt twice in three rows.
	compressors := []string{"svd", "rsvd", "svd"}
	g, nu, nb, ord, comp := src.Perm(len(geometries)), src.Perm(len(nus)), src.Perm(len(nbs)), src.Perm(len(orderings)), src.Perm(len(compressors))
	rows := make([]oracleRow, len(orderings))
	for i := range rows {
		rows[i] = oracleRow{
			seed:       uint64(src.Intn(1 << 20)),
			geometry:   geometries[g[i%len(g)]],
			nu:         nus[nu[(i/len(g))%len(nu)]],
			nb:         nbs[nb[(i+i/len(g))%len(nb)]],
			ordering:   orderings[ord[i]],
			compressor: compressors[comp[i%len(comp)]],
		}
	}
	return rows
}

// deployment is one way to factor, named as its subtests are.
type deployment struct {
	name string
	cfg  Config
}

// oracleDeployments are the seven ways to factor, for one compressor and
// memory budget.
func oracleDeployments(comp string, budget int64) []deployment {
	return []deployment{
		{"full-block", Config{Mode: FullBlock}},
		{"full-tile", Config{Mode: FullTile}},
		{"tlr", Config{Mode: TLR, CompressorName: comp}},
		{"tlr+membudget", Config{Mode: TLR, CompressorName: comp, MemBudget: budget}},
		{"hodlr", Config{Mode: HODLR, CompressorName: comp}},
		{"ranks4", Config{Mode: TLR, CompressorName: comp, Ranks: 4}},
		{"ranks6", Config{Mode: TLR, CompressorName: comp, Ranks: 6}},
	}
}

// accuracyBound is η′, the relative size of the perturbation between the
// factor a way to factor computes and the exact factor of Σ; every
// approximate contract is η′ times a scale read off the dense reference.
//
// Each way to factor computes, exactly, the Cholesky factor of some Σ + E.
// Compression truncates an off-diagonal tile (TLR) or block (HODLR) A to
// ‖ΔA‖_F ≤ acc·‖A‖_F: once when it is generated and once for every Schur
// update that lands on it. The tiles one sweep truncates are disjoint blocks
// of a Schur complement S, and 0 ≼ S ≼ Σ gives ‖S‖_F ≤ ‖Σ‖_F, so a sweep adds
// at most acc·‖Σ‖_F to E, and there are at most mt = ⌈n/nb⌉ sweeps (HODLR
// with leaves of nb has fewer levels). Rounding adds the backward error of a
// Cholesky factorization and of its triangular solves, to first order
// n·u·‖Σ‖_F each, on both sides of a comparison. So
//
//	‖E‖₂ ≤ (mt·acc + 4n·u)·‖Σ‖_F,   η = ‖E‖₂·‖Σ⁻¹‖₂,   η′ = η/(1 − η),
//
// with ‖Σ⁻¹‖₂ estimated from the dense factor (conditionOf). F = Σ^-½·E·Σ^-½
// has ‖F‖₂ ≤ η and ‖(I+F)⁻¹ − I‖₂ ≤ η′, which moves each quantity by at most
//
//	log|Σ| = log det(I+F) + …:   n·η′
//	q = ZᵀΣ⁻¹Z:                  q·η′
//	ℓ = c − ½log|Σ| − ½q:        ½(n + q)·η′
//	profiled ℓ, θ̂₁ = q/n:        n·η′ and θ̂₁·η′ (Σ = θ₁·R at the default nugget)
//	kriging mean cᵀΣ⁻¹Z:         η′·√(cᵀΣ⁻¹c·q) ≤ η′·√(C(0)·q)
//	variance C(0) − cᵀΣ⁻¹c:       η′·cᵀΣ⁻¹c ≤ η′·C(0)
//
// (cᵀΣ⁻¹c ≤ C(0) because the joint covariance of a query and the data is
// positive semidefinite). The dense ways to factor are acc = 0: rounding
// alone, which is also the bound between two ways of using one factor.
func accuracyBound(acc float64, n, nb int, normF, invNorm float64) float64 {
	const u = 0x1p-53
	mt := (n + nb - 1) / nb
	eta := (float64(mt)*acc + 4*float64(n)*u) * normF * invNorm
	return eta / (1 - eta)
}

// conditionOf returns ‖Σ‖_F and ‖Σ⁻¹‖₂ for θ on p: the first from Σ itself,
// the second by power iteration on Σ⁻¹ through the dense factor.
func conditionOf(t *testing.T, p *Problem, th cov.Params, seed uint64) (normF, invNorm float64) {
	t.Helper()
	n, nugget := p.N(), Config{}.nugget(th.Variance)
	sigma := la.NewMat(n, n)
	cov.NewKernel(th).Matrix(sigma, p.Points, p.Metric)
	cov.AddNugget(sigma, nugget)
	f := factorize(t, p, th, Config{Mode: FullBlock})
	x := la.NewMat(n, 1)
	rng.New(seed).NormSlice(x.Data)
	for range 50 {
		x.Scale(1 / x.FrobNorm())
		if err := f.Solve(x); err != nil {
			t.Fatal(err)
		}
		invNorm = x.FrobNorm()
	}
	return sigma.FrobNorm(), invNorm
}

// factorize factors Σ(θ) under cfg on a fresh evaluator and returns the
// factor, which stays valid because nothing factors after it.
func factorize(t *testing.T, p *Problem, th cov.Params, cfg Config) Factor {
	t.Helper()
	s, err := NewSession(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var f Factor
	err = s.ev.withFactor(cov.NewKernel(th), s.cfg.nugget(th.Variance), func(g Factor) error {
		f = g
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// oracleResult is every quantity the oracle compares, from one way to factor.
type oracleResult struct {
	lik        LikResult
	prof, sig2 float64 // profiled ℓ and θ̂₁
	pred       []float64
	pv         Prediction
}

// quantities lists the result's values in oracleQuantities' order; ℓ carries
// its terms, the storage and rank statistics and the nugget the
// factorization ran with.
func (r oracleResult) quantities() [][]float64 {
	l := r.lik
	return [][]float64{
		{l.Value, l.LogDet, l.QuadForm, float64(l.Bytes), float64(l.MaxRank), l.MeanRank, l.NuggetUsed, float64(l.NuggetRetries)},
		{r.prof, r.sig2}, r.pred, r.pv.Mean, r.pv.Variance,
	}
}

var oracleQuantities = []string{"ℓ", "profiled ℓ", "Predict", "mean", "variance"}

// oracle is one run of TestEquivalenceOracle's bookkeeping: how many
// (way to factor, input, quantity) checks it made and, per quantity, the
// largest approximation error it saw as a fraction of its bound.
type oracle struct {
	checks int
	worst  map[string]float64
}

// bitwise asserts got ≡ want on float bits, quantity by quantity, except
// those the caller names.
func (o *oracle) bitwise(t *testing.T, contract string, got, want oracleResult, except ...string) {
	t.Helper()
	g, w := got.quantities(), want.quantities()
	for i, name := range oracleQuantities {
		if slices.Contains(except, name) {
			continue
		}
		o.checks++
		for j := range w[i] {
			if math.Float64bits(g[i][j]) != math.Float64bits(w[i][j]) {
				t.Errorf("%s: %s[%d] = %v, want the bits of %v", contract, name, j, g[i][j], w[i][j])
				break
			}
		}
	}
}

// within asserts |got − want| ≤ bound elementwise and records the worst
// ratio under the quantity's name.
func (o *oracle) within(t *testing.T, contract, name string, got, want []float64, bound float64) {
	t.Helper()
	o.checks++
	if bound <= 0 || math.IsNaN(bound) {
		t.Fatalf("%s: %s has no bound (%g)", contract, name, bound)
	}
	for j := range want {
		d := math.Abs(got[j] - want[j])
		o.worst[name] = max(o.worst[name], d/bound)
		if !(d <= bound) {
			t.Errorf("%s: %s[%d] = %.17g is %.3g from %.17g, bound %.3g", contract, name, j, got[j], d, want[j], bound)
			return
		}
	}
}

// approximate asserts every quantity of got within its accuracyBound scale
// (η′ given) of the dense reference ref.
func (o *oracle) approximate(t *testing.T, contract string, got, ref oracleResult, c0, n, eta float64) {
	t.Helper()
	q := ref.lik.QuadForm
	scalar := func(name string, g, w, bound float64) {
		t.Helper()
		o.within(t, contract, name, []float64{g}, []float64{w}, bound)
	}
	scalar("ℓ", got.lik.Value, ref.lik.Value, 0.5*(n+q)*eta)
	scalar("log|Σ|", got.lik.LogDet, ref.lik.LogDet, n*eta)
	scalar("ZᵀΣ⁻¹Z", got.lik.QuadForm, q, q*eta)
	scalar("profiled ℓ", got.prof, ref.prof, n*eta)
	scalar("θ̂₁", got.sig2, ref.sig2, ref.sig2*eta)
	o.within(t, contract, "Predict", got.pred, ref.pred, eta*math.Sqrt(c0*q))
	o.within(t, contract, "mean", got.pv.Mean, ref.pv.Mean, eta*math.Sqrt(c0*q))
	o.within(t, contract, "variance", got.pv.Variance, ref.pv.Variance, eta*c0)
}

// oracleCase is one row's data: the caller-order problem, θ, the θ a session
// evaluates first so that every answer at θ comes from a reused session, the
// query batch, and the per-tile tolerance the compressed ways to factor run
// at.
type oracleCase struct {
	p       *Problem
	th, th2 cov.Params
	q       []geom.Point
	acc     float64
}

// session computes every quantity at θ on one session that evaluated θ₂
// first, so each answer comes from a reused session: ℓ, PredictWithVariance,
// Predict (on the factor the latter left), the one-shot reference for the
// variance path on that factor too, and the profiled likelihood. It also
// returns the session, which the test closes, and how many tiles the
// evaluation at θ compressed.
func (c oracleCase) session(t *testing.T, cfg Config) (res, oneShot oracleResult, s *Session, compressed int64) {
	t.Helper()
	s, err := NewSession(c.p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := s.Close(); err != nil {
			t.Error(err)
		}
	})
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	var sent []int64 // cumulative bytes on the wire before and after each evaluation
	for _, th := range []cov.Params{c.th2, c.th} {
		sent = append(sent, commBytes(s))
		before := obs.Default().Snapshot()
		res.lik, err = s.LogLikelihood(th)
		must(err)
		compressed = obs.Default().Snapshot().Sub(before).Counters["tlr.compress.calls"]
	}
	if sent = append(sent, commBytes(s)); cfg.Ranks > 1 && !(sent[0] < sent[1] && sent[1] < sent[2]) {
		t.Errorf("CommStats did not accumulate across evaluations: %v bytes", sent)
	}
	if stats := s.CommStats(); (stats == nil) != (cfg.Ranks <= 1) || cfg.Ranks > 1 && len(stats) != cfg.Ranks {
		t.Errorf("CommStats %v on %d ranks", stats, cfg.Ranks)
	}
	res.pv, err = s.PredictWithVariance(c.q, c.th)
	must(err)
	res.pred, err = s.Predict(c.q, c.th)
	must(err)
	oneShot.pv = unchunked(t, s, c.q, c.th)
	res.prof, res.sig2, err = s.ProfiledLogLikelihood(c.th.Range, c.th.Smoothness)
	must(err)
	return res, oneShot, s, compressed
}

// commBytes is the session's cumulative bytes sent over all ranks; 0 on
// shared memory, which must report no CommStats.
func commBytes(s *Session) (sent int64) {
	for _, st := range s.CommStats() {
		sent += st.BytesSent
	}
	return sent
}

// free computes every quantity that has a free function through it, each on
// its own throwaway session; the profiled ℓ has only the session method.
func (c oracleCase) free(t *testing.T, cfg Config) (res oracleResult) {
	t.Helper()
	var errs [3]error
	res.lik, errs[0] = LogLikelihood(c.p, c.th, cfg)
	res.pred, errs[1] = Predict(c.p, c.q, c.th, cfg)
	res.pv, errs[2] = PredictWithVariance(c.p, c.q, c.th, cfg)
	if err := errors.Join(errs[:]...); err != nil {
		t.Fatal(err)
	}
	return res
}

// unchunked is PredictWithVariance as one n×m half-solve and a reduction of
// one column at a time, on the factor s holds for θ.
func unchunked(t *testing.T, s *Session, q []geom.Point, th cov.Params) Prediction {
	t.Helper()
	k, n, m := cov.NewKernel(th), s.p.N(), len(q)
	pr := Prediction{Mean: make([]float64, m), Variance: make([]float64, m)}
	s.mu.Lock()
	defer s.mu.Unlock()
	err := s.withFactor(k, th, s.cfg.nugget(th.Variance), func(f Factor) error {
		y := append([]float64(nil), s.p.Z...)
		w := la.NewMat(n, m)
		k.Block(w, s.p.Points, q, s.p.Metric)
		if err := errors.Join(f.HalfSolve(la.NewMatFrom(n, 1, y)), f.HalfSolve(w)); err != nil {
			return err
		}
		for j := range m {
			var mean, norm2 float64
			for r := range n {
				wi := w.At(r, j)
				mean += wi * y[r]
				norm2 += wi * wi
			}
			pr.Mean[j], pr.Variance[j] = mean, max(k.At(0)-norm2, 0)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return pr
}

// TestEquivalenceOracle holds every way to factor to one another and to the
// exact answer, on rows drawn from one seeded source (oracleRows): geometry ×
// ν × nb × ordering × compressor, each row run on full-block, full-tile, TLR,
// TLR under a memory budget, HODLR, and TLR on 4 and 6 ranks, for ℓ with its
// terms, storage and ranks, the profiled ℓ, Predict, and PredictWithVariance
// on a batch wider than nb.
//
// Bitwise, on float bits: a session at P workers that evaluated another θ
// first against the free functions at one worker; PredictWithVariance's
// column blocks against one n×m half-solve; the memory budget against in
// core; ranks against shared memory (PredictWithVariance within
// ranksBlockSolveTol); a short fit across a session, a budget and ranks; a session
// after a breakdown against a fresh one. Approximately, within
// accuracyBound: every way to factor, on the row's ordering, against
// full-block on the caller's order, and the variance path's mean against
// Predict on the same factor.
//
// A subtest is named after its row, seed first:
// go test -run 'TestEquivalenceOracle/seed<N>' reproduces one row.
func TestEquivalenceOracle(t *testing.T) {
	o := &oracle{worst: map[string]float64{}}
	t.Cleanup(func() { t.Logf("%d checks; largest error/bound per quantity %v", o.checks, o.worst) })
	for _, row := range oracleRows() {
		t.Run(row.String(), func(t *testing.T) { o.row(t, row) })
	}
	t.Run(fmt.Sprintf("seed%d-fit", oracleSeed), o.fit)
	t.Run("non-spd", o.nonSPD)
}

// row runs every way to factor on one row.
func (o *oracle) row(t *testing.T, row oracleRow) {
	r := oracleRand{rng.New(row.seed)}
	th := r.theta(row.nu)
	pts := r.points(row.geometry, oracleN)
	p, err := NewProblemOrdered(pts, r.field(t, pts, th), geom.Euclidean, geom.None)
	if err != nil {
		t.Fatal(err)
	}
	c := oracleCase{p: p, th: th, th2: r.theta(row.nu), q: r.queries(row.nb + row.nb/2 + 3), acc: math.Pow(10, -r.Uniform(6, 10))}
	ref, _, _, _ := c.session(t, Config{Mode: FullBlock, Ordering: geom.OrderNone, Workers: 1})
	normF, invNorm := conditionOf(t, p, th, row.seed)
	n := float64(oracleN)

	budget := tlr.MinMemBudget(row.nb, oracleWorkers)
	results := map[string]oracleResult{}
	for _, d := range oracleDeployments(row.compressor, budget) {
		t.Run(d.name, func(t *testing.T) {
			cfg := d.cfg
			cfg.TileSize, cfg.Ordering, cfg.Workers = row.nb, row.ordering, oracleWorkers
			acc := 0.0
			if cfg.Mode == TLR || cfg.Mode == HODLR {
				cfg.Accuracy, acc = c.acc, c.acc
			}
			if cfg.MemBudget > 0 {
				cfg.SpillDir = t.TempDir()
			}
			got, oneShot, s, compressed := c.session(t, cfg)
			results[d.name] = got
			if s.Config() != cfg.normalized() {
				t.Errorf("session config %+v, want %+v normalized", s.Config(), cfg)
			}
			if m := s.Metrics(); got.lik.NuggetUsed != cfg.nugget(th.Variance) || got.lik.NuggetRetries != 0 || m.FactorFailures != 0 || m.LastFactorFailure != "" {
				t.Errorf("a clean evaluation at nugget %g: %+v, metrics %+v", cfg.nugget(th.Variance), got.lik, m)
			}
			// shared memory and ranks generate with one generator: each
			// off-diagonal tile is compressed once, and counted, per evaluation
			if mt := int64(oracleN+row.nb-1) / int64(row.nb); cfg.Mode == TLR && compressed != mt*(mt-1)/2 {
				t.Errorf("tlr.compress.calls advanced by %d over one evaluation, want %d", compressed, mt*(mt-1)/2)
			}
			hw, spilled, ok := s.StoreStats()
			if ok != (cfg.MemBudget > 0) || cfg.MemBudget > 0 && (spilled == 0 || hw > budget+tlr.MinMemBudget(row.nb, oracleWorkers)) {
				t.Errorf("StoreStats (%d, %d, %v) with MemBudget %d: want a spill and a high water within the budget plus the working set", hw, spilled, ok, cfg.MemBudget)
			}
			if approx := acc > 0; approx != (got.lik.MaxRank > 0) || approx && got.lik.Bytes >= ref.lik.Bytes {
				t.Errorf("%v stores %d bytes at max rank %d, full-block %d", cfg.Mode, got.lik.Bytes, got.lik.MaxRank, ref.lik.Bytes)
			}

			one := cfg
			one.Workers = 1
			o.bitwise(t, "free functions at 1 worker ≡ reused session at P", got, c.free(t, one), "profiled ℓ")
			o.bitwise(t, "column blocks ≡ one n×m half-solve", got, oneShot, "ℓ", "profiled ℓ", "Predict")

			eta := accuracyBound(acc, oracleN, row.nb, normF, invNorm)
			if eta <= 0 || eta >= 1 {
				t.Fatalf("η′ = %g: the row is too ill-conditioned for a bound", eta)
			}
			o.approximate(t, "≈ full-block in caller order", got, ref, th.Variance, n, eta)
			scale := math.Sqrt(th.Variance * ref.lik.QuadForm) // of a kriging mean
			o.within(t, "PredictWithVariance mean ≈ Predict on one factor", "mean − Predict", got.pv.Mean, got.pred,
				accuracyBound(0, oracleN, row.nb, normF, invNorm)*scale)

			shared, ok := results["tlr"]
			switch {
			case !ok || cfg.Mode != TLR || d.name == "tlr":
			case cfg.MemBudget > 0:
				o.bitwise(t, "memory budget ≡ in core", got, shared)
			case cfg.Ranks > 1:
				o.bitwise(t, "ranks ≡ shared memory", got, shared, "mean", "variance")
				o.within(t, "ranks ≈ shared memory, block solve", "mean on ranks", got.pv.Mean, shared.pv.Mean, ranksBlockSolveTol*scale)
				o.within(t, "ranks ≈ shared memory, block solve", "variance on ranks", got.pv.Variance, shared.pv.Variance, ranksBlockSolveTol*th.Variance)
			}
		})
	}
}

// fit is one short Fit, free on shared-memory TLR and then one leg per
// subtest on a session: the same config, under a memory budget, on four
// ranks, on four ranks with straggling tasks, and on six ranks losing one
// mid-fit to a kill while tasks straggle. θ̂, ℓ, the evaluation count and
// the prediction at θ̂ are bitwise one answer.
func (o *oracle) fit(t *testing.T) {
	r := oracleRand{rng.New(oracleSeed)}
	th := r.theta("half")
	pts := r.points("uniform", 96)
	p, err := NewProblem(pts, r.field(t, pts, th), geom.Euclidean)
	if err != nil {
		t.Fatal(err)
	}
	q := r.queries(5)
	base := Config{Mode: TLR, TileSize: 24, Accuracy: 1e-7, CompressorName: "rsvd", Workers: oracleWorkers}
	opts := FitOptions{FixSmoothness: true, Start: th, MaxEvals: 10}
	// bits renders a fit and the prediction at its θ̂ exactly: %x of a float
	// is its bits
	bits := func(f FitResult, pred []float64) string {
		return fmt.Sprintf("θ̂ %x ℓ %x evals %d converged %t predict %x", f.Theta, f.LogL, f.Evals, f.Converged, pred)
	}
	fit, err := Fit(p, base, opts)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := Predict(p, q, fit.Theta, base)
	if err != nil {
		t.Fatal(err)
	}
	want := bits(fit, pred)
	budget, ranks4, stragglers, lost := base, base, base, base
	budget.Workers, budget.MemBudget, budget.SpillDir = 1, tlr.MinMemBudget(24, 1), t.TempDir()
	ranks4.Ranks, stragglers.Ranks = 4, 4
	lost.Ranks, lost.MaxRetries = 6, 1
	lost.Chaos = &chaos.FaultPlan{Seed: r.Uint64(), KillRank: 4, KillAtTask: genCholeskyLen(p.N(), 24) / 2,
		TaskDelays: 4, TaskDelay: 50 * time.Microsecond}
	stragglers.Chaos = &chaos.FaultPlan{Seed: r.Uint64(), TaskDelays: 4, TaskDelay: 50 * time.Microsecond}
	for _, leg := range []deployment{{"tlr", base}, {"tlr+membudget", budget}, {"ranks4", ranks4}, {"ranks4-stragglers", stragglers}, {"ranks6-lost-rank", lost}} {
		t.Run(leg.name, func(t *testing.T) {
			s, err := NewSession(p, leg.cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				if err := s.Close(); err != nil {
					t.Error(err)
				}
			}()
			fit, err := s.Fit(opts)
			if err != nil {
				t.Fatal(err)
			}
			pred, err := s.Predict(q, fit.Theta)
			if err != nil {
				t.Fatal(err)
			}
			o.checks += 2
			if got := bits(fit, pred); got != want {
				t.Errorf("%s\nshared-memory free Fit: %s", got, want)
			}
			if plan := leg.cfg.Chaos; plan != nil {
				killed := min(plan.KillRank, 1) // KillRank 0 kills no rank
				st, m := s.ChaosStats(), s.Metrics()
				if st.RanksKilled != int64(killed) || st.TaskDelays < 1 || m.RanksLost != killed || m.Replays != int64(killed) || m.FactorFailures != 0 {
					t.Errorf("chaos %+v, metrics %+v: want %d rank(s) lost in as many replays, a task delayed, no failure", st, m, killed)
				}
			}
		})
	}
}

// nonSPD breaks the factorization down on every way to factor — three
// copies of each location, at a nugget the escalation ladder cannot lift
// far enough for a variance of 10⁴ — and then asks the same session for a
// θ it can factor, by climbing the ladder: the failure must wrap
// la.ErrNotPositiveDefinite and leave nothing behind, the answer after it
// bitwise a fresh session's.
func (o *oracle) nonSPD(t *testing.T) {
	p := singularProblem(t)
	bad, good := theta(), theta()
	bad.Variance = 1e4
	for _, d := range oracleDeployments("svd", tlr.MinMemBudget(16, 1)) {
		t.Run(d.name, func(t *testing.T) {
			cfg := d.cfg
			cfg.TileSize, cfg.Nugget, cfg.Accuracy = 16, 1e-17, 1e-12
			s, err := NewSession(p, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if _, err := s.LogLikelihood(bad); !errors.Is(err, la.ErrNotPositiveDefinite) {
				t.Fatalf("ℓ at θ₁ = 10⁴, nugget 1e-17: error %v does not wrap la.ErrNotPositiveDefinite", err)
			}
			if m := s.Metrics(); m.NuggetEscalations != maxNuggetEscalations || m.FactorFailures != 1+maxNuggetEscalations || m.LastFactorFailure == "" {
				t.Errorf("metrics %+v: want the ladder climbed to its top and every rung failed", m)
			}
			got, err := s.LogLikelihood(good)
			if err != nil {
				t.Fatalf("the session did not recover: %v", err)
			}
			want, err := LogLikelihood(p, good, cfg)
			if err != nil {
				t.Fatal(err)
			}
			o.bitwise(t, "after a breakdown ≡ fresh session", oracleResult{lik: got}, oracleResult{lik: want}, oracleQuantities[1:]...)
			if got.NuggetRetries < 1 || got.NuggetUsed <= cfg.Nugget {
				t.Errorf("ℓ(θ) on three copies of each location factored at nugget %g after %d escalations: want the ladder climbed", got.NuggetUsed, got.NuggetRetries)
			}
		})
	}
}
