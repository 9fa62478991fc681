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
// kept their bits. The dense rows do not compress, so they are listed once,
// not per compressor.
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
		lik:      -0x1.f780fc2bb0b4bp+07,
		predict:  [4]float64{-0x1.43ad614986902p+00, -0x1.034fd5902ede4p+00, -0x1.cc44e955c2a57p-01, -0x1.3950fba0866edp-02},
		mean:     [8]float64{-0x1.43ad6149869p+00, -0x1.034fd5902edd7p+00, -0x1.cc44e955c2a48p-01, -0x1.3950fba0866cdp-02, 0x1.507c67ab19e7dp-01, -0x1.e8a7585c8678p-03, 0x1.6231f305cb72cp-01, -0x1.86167cba6ca14p+00},
		variance: [8]float64{0x1.0bc7b8c0a6218p-03, 0x1.c60ba455746ep-04, 0x1.0a26b81178cdp-04, 0x1.4b82ecb6a65c8p-03, 0x1.33435da90b53ep-02, 0x1.b138656e8ec34p-03, 0x1.9339a1888de9p-03, 0x1.631eee373608p-05},
	},
	"tlr+membudget/svd": {
		lik:      -0x1.f780fc2bb0b4bp+07,
		predict:  [4]float64{-0x1.43ad614986902p+00, -0x1.034fd5902ede4p+00, -0x1.cc44e955c2a57p-01, -0x1.3950fba0866edp-02},
		mean:     [8]float64{-0x1.43ad6149869p+00, -0x1.034fd5902edd7p+00, -0x1.cc44e955c2a48p-01, -0x1.3950fba0866cdp-02, 0x1.507c67ab19e7dp-01, -0x1.e8a7585c8678p-03, 0x1.6231f305cb72cp-01, -0x1.86167cba6ca14p+00},
		variance: [8]float64{0x1.0bc7b8c0a6218p-03, 0x1.c60ba455746ep-04, 0x1.0a26b81178cdp-04, 0x1.4b82ecb6a65c8p-03, 0x1.33435da90b53ep-02, 0x1.b138656e8ec34p-03, 0x1.9339a1888de9p-03, 0x1.631eee373608p-05},
	},
	"tlr-ranks4/svd": {
		lik:      -0x1.f780fc2bb0b4bp+07,
		predict:  [4]float64{-0x1.43ad614986902p+00, -0x1.034fd5902ede4p+00, -0x1.cc44e955c2a57p-01, -0x1.3950fba0866edp-02},
		mean:     [8]float64{-0x1.43ad6149869p+00, -0x1.034fd5902edd7p+00, -0x1.cc44e955c2a48p-01, -0x1.3950fba0866cdp-02, 0x1.507c67ab19e7dp-01, -0x1.e8a7585c8678p-03, 0x1.6231f305cb72cp-01, -0x1.86167cba6ca14p+00},
		variance: [8]float64{0x1.0bc7b8c0a6218p-03, 0x1.c60ba455746ep-04, 0x1.0a26b81178cdp-04, 0x1.4b82ecb6a65c8p-03, 0x1.33435da90b53ep-02, 0x1.b138656e8ec34p-03, 0x1.9339a1888de9p-03, 0x1.631eee373608p-05},
	},
	"hodlr/svd": {
		lik:      -0x1.f780fbfa5471cp+07,
		predict:  [4]float64{-0x1.43ad60d3a7f6dp+00, -0x1.034fd514853dbp+00, -0x1.cc44e9015e79p-01, -0x1.3950f97956a5p-02},
		mean:     [8]float64{-0x1.43ad60d3a7f6bp+00, -0x1.034fd514853dep+00, -0x1.cc44e9015e78fp-01, -0x1.3950f97956a2cp-02, 0x1.507c67ae60809p-01, -0x1.e8a7507191b6ep-03, 0x1.6231f3bb89c75p-01, -0x1.86167d2f39d23p+00},
		variance: [8]float64{0x1.0bc7b8c0a436p-03, 0x1.c60ba4556f23p-04, 0x1.0a26b8117579p-04, 0x1.4b82ecb6a858p-03, 0x1.33435da90fb96p-02, 0x1.b138656e8de4p-03, 0x1.9339a18889678p-03, 0x1.631eee3730ccp-05},
	},
	"tlr/rsvd": {
		lik:      -0x1.f780fc17da17ep+07,
		predict:  [4]float64{-0x1.43ad615e0ab8cp+00, -0x1.034fd4818f7d1p+00, -0x1.cc44ea72558b8p-01, -0x1.3950faa4db454p-02},
		mean:     [8]float64{-0x1.43ad615e0ab94p+00, -0x1.034fd4818f7c1p+00, -0x1.cc44ea72558bbp-01, -0x1.3950faa4db42ap-02, 0x1.507c67a81df06p-01, -0x1.e8a7568e39b67p-03, 0x1.6231f30bf9ac9p-01, -0x1.86167cbae8c65p+00},
		variance: [8]float64{0x1.0bc7b8c0a5e38p-03, 0x1.c60ba45574b6p-04, 0x1.0a26b8117913p-04, 0x1.4b82ecb6a6e08p-03, 0x1.33435da90b624p-02, 0x1.b138656e8eb9cp-03, 0x1.9339a1888d848p-03, 0x1.631eee373606p-05},
	},
	"tlr+membudget/rsvd": {
		lik:      -0x1.f780fc17da17ep+07,
		predict:  [4]float64{-0x1.43ad615e0ab8cp+00, -0x1.034fd4818f7d1p+00, -0x1.cc44ea72558b8p-01, -0x1.3950faa4db454p-02},
		mean:     [8]float64{-0x1.43ad615e0ab94p+00, -0x1.034fd4818f7c1p+00, -0x1.cc44ea72558bbp-01, -0x1.3950faa4db42ap-02, 0x1.507c67a81df06p-01, -0x1.e8a7568e39b67p-03, 0x1.6231f30bf9ac9p-01, -0x1.86167cbae8c65p+00},
		variance: [8]float64{0x1.0bc7b8c0a5e38p-03, 0x1.c60ba45574b6p-04, 0x1.0a26b8117913p-04, 0x1.4b82ecb6a6e08p-03, 0x1.33435da90b624p-02, 0x1.b138656e8eb9cp-03, 0x1.9339a1888d848p-03, 0x1.631eee373606p-05},
	},
	"tlr-ranks4/rsvd": {
		lik:      -0x1.f780fc17da17ep+07,
		predict:  [4]float64{-0x1.43ad615e0ab8cp+00, -0x1.034fd4818f7d1p+00, -0x1.cc44ea72558b8p-01, -0x1.3950faa4db454p-02},
		mean:     [8]float64{-0x1.43ad615e0ab94p+00, -0x1.034fd4818f7c1p+00, -0x1.cc44ea72558bbp-01, -0x1.3950faa4db42ap-02, 0x1.507c67a81df06p-01, -0x1.e8a7568e39b67p-03, 0x1.6231f30bf9ac9p-01, -0x1.86167cbae8c65p+00},
		variance: [8]float64{0x1.0bc7b8c0a5e38p-03, 0x1.c60ba45574b6p-04, 0x1.0a26b8117913p-04, 0x1.4b82ecb6a6e08p-03, 0x1.33435da90b624p-02, 0x1.b138656e8eb9cp-03, 0x1.9339a1888d848p-03, 0x1.631eee373606p-05},
	},
	"hodlr/rsvd": {
		lik:      -0x1.f780fbd316f9bp+07,
		predict:  [4]float64{-0x1.43ad6156a09f4p+00, -0x1.034fd4b8e37f8p+00, -0x1.cc44e9df501c9p-01, -0x1.3950fa6ab0c1fp-02},
		mean:     [8]float64{-0x1.43ad6156a0a09p+00, -0x1.034fd4b8e37fp+00, -0x1.cc44e9df501cdp-01, -0x1.3950fa6ab0c1ep-02, 0x1.507c67ac5f892p-01, -0x1.e8a753238a9a1p-03, 0x1.6231f3c64ac1cp-01, -0x1.86167cba0d50cp+00},
		variance: [8]float64{0x1.0bc7b8c0a4f2p-03, 0x1.c60ba4556f43p-04, 0x1.0a26b8117793p-04, 0x1.4b82ecb6a6368p-03, 0x1.33435da910876p-02, 0x1.b138656e8ecc8p-03, 0x1.9339a18890ebp-03, 0x1.631eee3731a2p-05},
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
