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
// dense rows do not compress, so they are listed once, not per compressor.
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
		lik:      -0x1.f780fc2baf036p+07,
		predict:  [4]float64{-0x1.43ad61497e92cp+00, -0x1.034fd5902ccfdp+00, -0x1.cc44e955c5bcap-01, -0x1.3950fba089881p-02},
		mean:     [8]float64{-0x1.43ad61497e936p+00, -0x1.034fd5902cd09p+00, -0x1.cc44e955c5bbdp-01, -0x1.3950fba089892p-02, 0x1.507c67ab1a7d8p-01, -0x1.e8a7585c1dff2p-03, 0x1.6231f305c934bp-01, -0x1.86167cba6d3bbp+00},
		variance: [8]float64{0x1.0bc7b8c0a62p-03, 0x1.c60ba4557475p-04, 0x1.0a26b81178d1p-04, 0x1.4b82ecb6a65cp-03, 0x1.33435da90b524p-02, 0x1.b138656e8ec18p-03, 0x1.9339a1888de9p-03, 0x1.631eee373612p-05},
	},
	"tlr+membudget/svd": {
		lik:      -0x1.f780fc2baf036p+07,
		predict:  [4]float64{-0x1.43ad61497e92cp+00, -0x1.034fd5902ccfdp+00, -0x1.cc44e955c5bcap-01, -0x1.3950fba089881p-02},
		mean:     [8]float64{-0x1.43ad61497e936p+00, -0x1.034fd5902cd09p+00, -0x1.cc44e955c5bbdp-01, -0x1.3950fba089892p-02, 0x1.507c67ab1a7d8p-01, -0x1.e8a7585c1dff2p-03, 0x1.6231f305c934bp-01, -0x1.86167cba6d3bbp+00},
		variance: [8]float64{0x1.0bc7b8c0a62p-03, 0x1.c60ba4557475p-04, 0x1.0a26b81178d1p-04, 0x1.4b82ecb6a65cp-03, 0x1.33435da90b524p-02, 0x1.b138656e8ec18p-03, 0x1.9339a1888de9p-03, 0x1.631eee373612p-05},
	},
	"tlr-ranks4/svd": {
		lik:      -0x1.f780fc2baf036p+07,
		predict:  [4]float64{-0x1.43ad61497e92cp+00, -0x1.034fd5902ccfdp+00, -0x1.cc44e955c5bcap-01, -0x1.3950fba089881p-02},
		mean:     [8]float64{-0x1.43ad61497e936p+00, -0x1.034fd5902cd09p+00, -0x1.cc44e955c5bbdp-01, -0x1.3950fba089892p-02, 0x1.507c67ab1a7d8p-01, -0x1.e8a7585c1dff2p-03, 0x1.6231f305c934bp-01, -0x1.86167cba6d3bbp+00},
		variance: [8]float64{0x1.0bc7b8c0a62p-03, 0x1.c60ba4557475p-04, 0x1.0a26b81178d1p-04, 0x1.4b82ecb6a65cp-03, 0x1.33435da90b524p-02, 0x1.b138656e8ec18p-03, 0x1.9339a1888de9p-03, 0x1.631eee373612p-05},
	},
	"hodlr/svd": {
		lik:      -0x1.f780fbfa5519fp+07,
		predict:  [4]float64{-0x1.43ad60d3a607cp+00, -0x1.034fd5148f05dp+00, -0x1.cc44e90150946p-01, -0x1.3950f9795c07cp-02},
		mean:     [8]float64{-0x1.43ad60d3a607cp+00, -0x1.034fd5148f05fp+00, -0x1.cc44e9015093fp-01, -0x1.3950f9795c076p-02, 0x1.507c67ae639e8p-01, -0x1.e8a75071909dfp-03, 0x1.6231f3bb7cfbbp-01, -0x1.86167d2f3985bp+00},
		variance: [8]float64{0x1.0bc7b8c0a4378p-03, 0x1.c60ba4556f29p-04, 0x1.0a26b8117579p-04, 0x1.4b82ecb6a85bp-03, 0x1.33435da90fb8p-02, 0x1.b138656e8de6p-03, 0x1.9339a18889678p-03, 0x1.631eee3730ccp-05},
	},
	"tlr/rsvd": {
		lik:      -0x1.f780fc183682cp+07,
		predict:  [4]float64{-0x1.43ad615e09f15p+00, -0x1.034fd4831976bp+00, -0x1.cc44ea7233296p-01, -0x1.3950faa4de52dp-02},
		mean:     [8]float64{-0x1.43ad615e09f16p+00, -0x1.034fd48319773p+00, -0x1.cc44ea7233298p-01, -0x1.3950faa4de51fp-02, 0x1.507c67a78392cp-01, -0x1.e8a756906e5e5p-03, 0x1.6231f30c2ff46p-01, -0x1.86167cbaecbfcp+00},
		variance: [8]float64{0x1.0bc7b8c0a5e3p-03, 0x1.c60ba45574bfp-04, 0x1.0a26b8117914p-04, 0x1.4b82ecb6a6df8p-03, 0x1.33435da90b61ap-02, 0x1.b138656e8ebacp-03, 0x1.9339a1888d8c8p-03, 0x1.631eee373618p-05},
	},
	"tlr+membudget/rsvd": {
		lik:      -0x1.f780fc183682cp+07,
		predict:  [4]float64{-0x1.43ad615e09f15p+00, -0x1.034fd4831976bp+00, -0x1.cc44ea7233296p-01, -0x1.3950faa4de52dp-02},
		mean:     [8]float64{-0x1.43ad615e09f16p+00, -0x1.034fd48319773p+00, -0x1.cc44ea7233298p-01, -0x1.3950faa4de51fp-02, 0x1.507c67a78392cp-01, -0x1.e8a756906e5e5p-03, 0x1.6231f30c2ff46p-01, -0x1.86167cbaecbfcp+00},
		variance: [8]float64{0x1.0bc7b8c0a5e3p-03, 0x1.c60ba45574bfp-04, 0x1.0a26b8117914p-04, 0x1.4b82ecb6a6df8p-03, 0x1.33435da90b61ap-02, 0x1.b138656e8ebacp-03, 0x1.9339a1888d8c8p-03, 0x1.631eee373618p-05},
	},
	"tlr-ranks4/rsvd": {
		lik:      -0x1.f780fc183682cp+07,
		predict:  [4]float64{-0x1.43ad615e09f15p+00, -0x1.034fd4831976bp+00, -0x1.cc44ea7233296p-01, -0x1.3950faa4de52dp-02},
		mean:     [8]float64{-0x1.43ad615e09f16p+00, -0x1.034fd48319773p+00, -0x1.cc44ea7233298p-01, -0x1.3950faa4de51fp-02, 0x1.507c67a78392cp-01, -0x1.e8a756906e5e5p-03, 0x1.6231f30c2ff46p-01, -0x1.86167cbaecbfcp+00},
		variance: [8]float64{0x1.0bc7b8c0a5e3p-03, 0x1.c60ba45574bfp-04, 0x1.0a26b8117914p-04, 0x1.4b82ecb6a6df8p-03, 0x1.33435da90b61ap-02, 0x1.b138656e8ebacp-03, 0x1.9339a1888d8c8p-03, 0x1.631eee373618p-05},
	},
	"hodlr/rsvd": {
		lik:      -0x1.f780fbd2f552bp+07,
		predict:  [4]float64{-0x1.43ad6156a25e9p+00, -0x1.034fd4b681d2dp+00, -0x1.cc44e9df68938p-01, -0x1.3950fa6ab12bcp-02},
		mean:     [8]float64{-0x1.43ad6156a25edp+00, -0x1.034fd4b681d25p+00, -0x1.cc44e9df68936p-01, -0x1.3950fa6ab12bdp-02, 0x1.507c67ac6f62fp-01, -0x1.e8a753237f429p-03, 0x1.6231f3c134415p-01, -0x1.86167cbd291f2p+00},
		variance: [8]float64{0x1.0bc7b8c0a4f18p-03, 0x1.c60ba4556f3bp-04, 0x1.0a26b811778ep-04, 0x1.4b82ecb6a6368p-03, 0x1.33435da910ba6p-02, 0x1.b138656e8ecfp-03, 0x1.9339a18890efp-03, 0x1.631eee3731aep-05},
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
