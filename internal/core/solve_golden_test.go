package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cov"
	"repro/internal/geom"
	"repro/internal/la"
	"repro/internal/rng"
	"repro/internal/tlr"
)

// solveGolden is what one way to factor returns for the golden problem: the
// likelihood, four kriging means, and eight means with their variances.
type solveGolden struct {
	lik      float64
	predict  [4]float64
	mean     [8]float64
	variance [8]float64
}

// solveGoldens were first recorded at the commit before a right-hand side
// became a block (PR 22, amd64 with the FMA kernels), when every triangular
// solve above la was one of twelve hand-written loops, and re-recorded when
// every Gemm of two or more columns left the naive loops for the micro-kernel
// and Syrk lost its small-problem route (PR 25): the two likelihoods of the
// dense rows and every mean and variance of full-block kept their bits. The
// eight tlr and hodlr rows were re-recorded when la.SVDThin moved from
// Jacobi rotations to bidiagonalization and bidiagonal QR; the dense rows
// kept their bits. The six tlr rows were re-recorded when the TLR Cholesky
// became a left-looking sweep that compresses each factor tile once, and
// hodlr/rsvd when the randomized compressor began to truncate against the
// full tolerance less its residual estimate; hodlr/svd and the dense rows
// kept their bits. The four rsvd rows were re-recorded when the randomized
// compressor dropped its power pass, took a rank hint for its first sketch
// and drew sign sketches: ℓ's relative error against full-block went from
// 4.260e-9 to 4.283e-9 on the tlr rows (tlr/svd: 4.260e-9) and from 2.661e-9
// to 2.747e-9 on hodlr/rsvd (hodlr/svd: 2.661e-9); the svd and dense rows
// kept their bits. The six tlr rows were re-recorded when a TLR session
// with an empty Config.Ordering began to tile KD-block cells at its
// TileSize instead of the Problem's Morton runs: ℓ's relative error against
// full-block fell from 4.260e-9 to 1.476e-9 (svd) and from 4.283e-9 to
// 1.757e-9 (rsvd); the hodlr and dense rows keep the Problem's order and
// their bits. The dense rows do not compress, so they are listed once, not
// per compressor.
var solveGoldens = map[string]solveGolden{
	"full-block": {
		lik:      -0x1.f780fbe3d9fb6p+07,
		predict:  [4]float64{-0x1.43ad6151ff417p+00, -0x1.034fd4be86bf1p+00, -0x1.cc44e9b26d831p-01, -0x1.3950fa75cb062p-02},
		mean:     [8]float64{-0x1.43ad6151ff425p+00, -0x1.034fd4be86bfcp+00, -0x1.cc44e9b26d839p-01, -0x1.3950fa75cb066p-02, 0x1.507c67e25ebfap-01, -0x1.e8a752520335dp-03, 0x1.6231f395a512fp-01, -0x1.86167cc338c31p+00},
		variance: [8]float64{0x1.0bc7b8c0a57d8p-03, 0x1.c60ba4556f48p-04, 0x1.0a26b81178cep-04, 0x1.4b82ecb6a7298p-03, 0x1.33435da90c0b4p-02, 0x1.b138656e8ea5p-03, 0x1.9339a1888d848p-03, 0x1.631eee37362ep-05},
	},
	"full-tile": {
		lik:      -0x1.f780fbe3d9fb8p+07,
		predict:  [4]float64{-0x1.43ad6151ff416p+00, -0x1.034fd4be86bfcp+00, -0x1.cc44e9b26d837p-01, -0x1.3950fa75cb055p-02},
		mean:     [8]float64{-0x1.43ad6151ff41bp+00, -0x1.034fd4be86bfep+00, -0x1.cc44e9b26d84p-01, -0x1.3950fa75cb075p-02, 0x1.507c67e25ebfdp-01, -0x1.e8a7525203381p-03, 0x1.6231f395a513cp-01, -0x1.86167cc338c38p+00},
		variance: [8]float64{0x1.0bc7b8c0a57d8p-03, 0x1.c60ba4556f47p-04, 0x1.0a26b81178cbp-04, 0x1.4b82ecb6a7298p-03, 0x1.33435da90c0b6p-02, 0x1.b138656e8ea3cp-03, 0x1.9339a1888d848p-03, 0x1.631eee37362ap-05},
	},
	"tlr/svd": {
		lik:      -0x1.f780fbf0518c7p+07,
		predict:  [4]float64{-0x1.43ad6190601b3p+00, -0x1.034fd4d76e04ep+00, -0x1.cc44e9a781551p-01, -0x1.3950fad8b501p-02},
		mean:     [8]float64{-0x1.43ad6190601b5p+00, -0x1.034fd4d76e056p+00, -0x1.cc44e9a781556p-01, -0x1.3950fad8b4fe4p-02, 0x1.507c681aade6ep-01, -0x1.e8a751684fecap-03, 0x1.6231f3653c6fdp-01, -0x1.86167c7cf0891p+00},
		variance: [8]float64{0x1.0bc7b8c0a5a08p-03, 0x1.c60ba455747p-04, 0x1.0a26b8115fep-04, 0x1.4b82ecb6aa9ap-03, 0x1.33435da90d4ep-02, 0x1.b138656e91e8p-03, 0x1.9339a1888f44p-03, 0x1.631eee37364ap-05},
	},
	"tlr+membudget/svd": {
		lik:      -0x1.f780fbf0518c7p+07,
		predict:  [4]float64{-0x1.43ad6190601b3p+00, -0x1.034fd4d76e04ep+00, -0x1.cc44e9a781551p-01, -0x1.3950fad8b501p-02},
		mean:     [8]float64{-0x1.43ad6190601b5p+00, -0x1.034fd4d76e056p+00, -0x1.cc44e9a781556p-01, -0x1.3950fad8b4fe4p-02, 0x1.507c681aade6ep-01, -0x1.e8a751684fecap-03, 0x1.6231f3653c6fdp-01, -0x1.86167c7cf0891p+00},
		variance: [8]float64{0x1.0bc7b8c0a5a08p-03, 0x1.c60ba455747p-04, 0x1.0a26b8115fep-04, 0x1.4b82ecb6aa9ap-03, 0x1.33435da90d4ep-02, 0x1.b138656e91e8p-03, 0x1.9339a1888f44p-03, 0x1.631eee37364ap-05},
	},
	"tlr-ranks4/svd": {
		lik:      -0x1.f780fbf0518c7p+07,
		predict:  [4]float64{-0x1.43ad6190601b3p+00, -0x1.034fd4d76e04ep+00, -0x1.cc44e9a781551p-01, -0x1.3950fad8b501p-02},
		mean:     [8]float64{-0x1.43ad6190601b5p+00, -0x1.034fd4d76e056p+00, -0x1.cc44e9a781556p-01, -0x1.3950fad8b4fe4p-02, 0x1.507c681aade6ep-01, -0x1.e8a751684fecap-03, 0x1.6231f3653c6fdp-01, -0x1.86167c7cf0891p+00},
		variance: [8]float64{0x1.0bc7b8c0a5a08p-03, 0x1.c60ba455747p-04, 0x1.0a26b8115fep-04, 0x1.4b82ecb6aa9ap-03, 0x1.33435da90d4ep-02, 0x1.b138656e91e8p-03, 0x1.9339a1888f44p-03, 0x1.631eee37364ap-05},
	},
	"hodlr/svd": {
		lik:      -0x1.f780fbfa5471cp+07,
		predict:  [4]float64{-0x1.43ad60d3a7f6dp+00, -0x1.034fd514853dbp+00, -0x1.cc44e9015e79p-01, -0x1.3950f97956a5p-02},
		mean:     [8]float64{-0x1.43ad60d3a7f6bp+00, -0x1.034fd514853dep+00, -0x1.cc44e9015e78fp-01, -0x1.3950f97956a2cp-02, 0x1.507c67ae60809p-01, -0x1.e8a7507191b6ep-03, 0x1.6231f3bb89c75p-01, -0x1.86167d2f39d23p+00},
		variance: [8]float64{0x1.0bc7b8c0a436p-03, 0x1.c60ba4556f23p-04, 0x1.0a26b8117579p-04, 0x1.4b82ecb6a858p-03, 0x1.33435da90fb96p-02, 0x1.b138656e8de4p-03, 0x1.9339a18889678p-03, 0x1.631eee3730ccp-05},
	},
	"tlr/rsvd": {
		lik:      -0x1.f780fbf2b261ep+07,
		predict:  [4]float64{-0x1.43ad618b61ba7p+00, -0x1.034fd4d6a8ccdp+00, -0x1.cc44e9b9174bp-01, -0x1.3950fabe3eb45p-02},
		mean:     [8]float64{-0x1.43ad618b61bb5p+00, -0x1.034fd4d6a8ccfp+00, -0x1.cc44e9b9174a8p-01, -0x1.3950fabe3eb3dp-02, 0x1.507c681ad3269p-01, -0x1.e8a751a70d82p-03, 0x1.6231f368221b1p-01, -0x1.86167c7d07e25p+00},
		variance: [8]float64{0x1.0bc7b8c0a59ep-03, 0x1.c60ba45594bap-04, 0x1.0a26b8116025p-04, 0x1.4b82ecb6ab4dp-03, 0x1.33435da90d4eap-02, 0x1.b138656e9306p-03, 0x1.9339a1888f368p-03, 0x1.631eee37364p-05},
	},
	"tlr+membudget/rsvd": {
		lik:      -0x1.f780fbf2b261ep+07,
		predict:  [4]float64{-0x1.43ad618b61ba7p+00, -0x1.034fd4d6a8ccdp+00, -0x1.cc44e9b9174bp-01, -0x1.3950fabe3eb45p-02},
		mean:     [8]float64{-0x1.43ad618b61bb5p+00, -0x1.034fd4d6a8ccfp+00, -0x1.cc44e9b9174a8p-01, -0x1.3950fabe3eb3dp-02, 0x1.507c681ad3269p-01, -0x1.e8a751a70d82p-03, 0x1.6231f368221b1p-01, -0x1.86167c7d07e25p+00},
		variance: [8]float64{0x1.0bc7b8c0a59ep-03, 0x1.c60ba45594bap-04, 0x1.0a26b8116025p-04, 0x1.4b82ecb6ab4dp-03, 0x1.33435da90d4eap-02, 0x1.b138656e9306p-03, 0x1.9339a1888f368p-03, 0x1.631eee37364p-05},
	},
	"tlr-ranks4/rsvd": {
		lik:      -0x1.f780fbf2b261ep+07,
		predict:  [4]float64{-0x1.43ad618b61ba7p+00, -0x1.034fd4d6a8ccdp+00, -0x1.cc44e9b9174bp-01, -0x1.3950fabe3eb45p-02},
		mean:     [8]float64{-0x1.43ad618b61bb5p+00, -0x1.034fd4d6a8ccfp+00, -0x1.cc44e9b9174a8p-01, -0x1.3950fabe3eb3dp-02, 0x1.507c681ad3269p-01, -0x1.e8a751a70d82p-03, 0x1.6231f368221b1p-01, -0x1.86167c7d07e25p+00},
		variance: [8]float64{0x1.0bc7b8c0a59ep-03, 0x1.c60ba45594bap-04, 0x1.0a26b8116025p-04, 0x1.4b82ecb6ab4dp-03, 0x1.33435da90d4eap-02, 0x1.b138656e9306p-03, 0x1.9339a1888f368p-03, 0x1.631eee37364p-05},
	},
	"hodlr/rsvd": {
		lik:      -0x1.f780fbfb0e707p+07,
		predict:  [4]float64{-0x1.43ad60dbe409ep+00, -0x1.034fd51553a78p+00, -0x1.cc44e8f8d27b3p-01, -0x1.3950f97c2a67ap-02},
		mean:     [8]float64{-0x1.43ad60dbe409ap+00, -0x1.034fd51553a73p+00, -0x1.cc44e8f8d27b2p-01, -0x1.3950f97c2a687p-02, 0x1.507c67af70ae9p-01, -0x1.e8a75033c54f7p-03, 0x1.6231f3bc04c25p-01, -0x1.86167d2f8c54dp+00},
		variance: [8]float64{0x1.0bc7b8c0a44p-03, 0x1.c60ba4556fp-04, 0x1.0a26b8117579p-04, 0x1.4b82ecb6a8628p-03, 0x1.33435da90fb76p-02, 0x1.b138656e8de28p-03, 0x1.9339a188891b8p-03, 0x1.631eee3730dp-05},
	},
}

// TestSolveGoldenBits: LikResult.Value, Predict and PredictWithVariance of
// one seeded n=200, nb=32 problem come out bit for bit what the per-format
// vector and block solves returned, on every way to factor. The bits are
// those of the amd64 FMA build; elsewhere the test skips rather than loosen.
func TestSolveGoldenBits(t *testing.T) {
	if !la.FMAKernelEnabled() {
		t.Skip("goldens are the bits of the amd64 FMA kernels")
	}
	const n, nb = 200, 32
	th := cov.Params{Variance: 1.2, Range: 0.1, Smoothness: 0.8}
	pts, z := rawDataset(t, n, 2301)
	p, err := NewProblem(pts, z, geom.Euclidean)
	if err != nil {
		t.Fatal(err)
	}
	newPts := geom.GeneratePerturbedGrid(8, rng.New(2302))

	type row struct {
		name string
		cfg  Config
	}
	rows := []row{{"full-block", Config{Mode: FullBlock}}, {"full-tile", Config{Mode: FullTile}}}
	for _, comp := range []string{"svd", "rsvd"} {
		rows = append(rows,
			row{"tlr/" + comp, Config{Mode: TLR, CompressorName: comp}},
			row{"tlr+membudget/" + comp, Config{Mode: TLR, CompressorName: comp, MemBudget: tlr.MinMemBudget(nb, 2)}},
			row{"tlr-ranks4/" + comp, Config{Mode: TLR, CompressorName: comp, Ranks: 4}},
			row{"hodlr/" + comp, Config{Mode: HODLR, CompressorName: comp}},
		)
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			cfg := r.cfg
			cfg.TileSize, cfg.Accuracy, cfg.Workers = nb, 1e-8, 2
			s, err := NewSession(p, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			var got solveGolden
			lik, err := s.LogLikelihood(th)
			if err != nil {
				t.Fatal(err)
			}
			got.lik = lik.Value
			mean, err := s.Predict(newPts[:4], th)
			if err != nil {
				t.Fatal(err)
			}
			copy(got.predict[:], mean)
			pr, err := s.PredictWithVariance(newPts, th)
			if err != nil {
				t.Fatal(err)
			}
			copy(got.mean[:], pr.Mean)
			copy(got.variance[:], pr.Variance)
			if want := solveGoldens[r.name]; got != want {
				t.Fatalf("bits moved; got\n%q: %s,", r.name, got.literal())
			}
		})
	}
}

// literal renders g as the Go literal the golden table holds.
func (g solveGolden) literal() string {
	hex := func(vs []float64) string {
		out := make([]string, len(vs))
		for i, v := range vs {
			out[i] = fmt.Sprintf("%x", v)
		}
		return "{" + strings.Join(out, ", ") + "}"
	}
	return fmt.Sprintf("{\n\tlik: %x,\n\tpredict: [4]float64%s,\n\tmean: [8]float64%s,\n\tvariance: [8]float64%s,\n}",
		g.lik, hex(g.predict[:]), hex(g.mean[:]), hex(g.variance[:]))
}
