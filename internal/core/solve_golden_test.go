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

// solveGoldens were recorded at the commit before a right-hand side became a
// block (PR 22, amd64 with the FMA kernels): every triangular solve above la
// was then one of twelve hand-written loops. The dense rows do not compress,
// so they are listed once, not per compressor.
var solveGoldens = map[string]solveGolden{
	"full-block": {
		lik:      -0x1.f780fbe3d9fb6p+07,
		predict:  [4]float64{-0x1.43ad6151ff415p+00, -0x1.034fd4be86bf1p+00, -0x1.cc44e9b26d82fp-01, -0x1.3950fa75cb03ep-02},
		mean:     [8]float64{-0x1.43ad6151ff425p+00, -0x1.034fd4be86bfcp+00, -0x1.cc44e9b26d839p-01, -0x1.3950fa75cb066p-02, 0x1.507c67e25ebfap-01, -0x1.e8a752520335dp-03, 0x1.6231f395a512fp-01, -0x1.86167cc338c31p+00},
		variance: [8]float64{0x1.0bc7b8c0a57d8p-03, 0x1.c60ba4556f48p-04, 0x1.0a26b81178cep-04, 0x1.4b82ecb6a7298p-03, 0x1.33435da90c0b4p-02, 0x1.b138656e8ea5p-03, 0x1.9339a1888d848p-03, 0x1.631eee37362ep-05},
	},
	"full-tile": {
		lik:      -0x1.f780fbe3d9fb8p+07,
		predict:  [4]float64{-0x1.43ad6151ff412p+00, -0x1.034fd4be86bfap+00, -0x1.cc44e9b26d83fp-01, -0x1.3950fa75cb05cp-02},
		mean:     [8]float64{-0x1.43ad6151ff41ap+00, -0x1.034fd4be86c06p+00, -0x1.cc44e9b26d842p-01, -0x1.3950fa75cb066p-02, 0x1.507c67e25ebf3p-01, -0x1.e8a75252032eap-03, 0x1.6231f395a5125p-01, -0x1.86167cc338c55p+00},
		variance: [8]float64{0x1.0bc7b8c0a57dp-03, 0x1.c60ba4556f4p-04, 0x1.0a26b81178c9p-04, 0x1.4b82ecb6a7298p-03, 0x1.33435da90c0c8p-02, 0x1.b138656e8ea44p-03, 0x1.9339a1888d84p-03, 0x1.631eee373616p-05},
	},
	"tlr/svd": {
		lik:      -0x1.f780fc2baf038p+07,
		predict:  [4]float64{-0x1.43ad61497e93p+00, -0x1.034fd5902cd06p+00, -0x1.cc44e955c5bbfp-01, -0x1.3950fba08988ep-02},
		mean:     [8]float64{-0x1.43ad61497e932p+00, -0x1.034fd5902cd0cp+00, -0x1.cc44e955c5bbcp-01, -0x1.3950fba089886p-02, 0x1.507c67ab1a7e5p-01, -0x1.e8a7585c1e00cp-03, 0x1.6231f305c935ap-01, -0x1.86167cba6d3b1p+00},
		variance: [8]float64{0x1.0bc7b8c0a6218p-03, 0x1.c60ba4557476p-04, 0x1.0a26b81178d6p-04, 0x1.4b82ecb6a65b8p-03, 0x1.33435da90b52ap-02, 0x1.b138656e8ec18p-03, 0x1.9339a1888deap-03, 0x1.631eee37361ep-05},
	},
	"tlr+membudget/svd": {
		lik:      -0x1.f780fc2baf038p+07,
		predict:  [4]float64{-0x1.43ad61497e93p+00, -0x1.034fd5902cd06p+00, -0x1.cc44e955c5bbfp-01, -0x1.3950fba08988ep-02},
		mean:     [8]float64{-0x1.43ad61497e932p+00, -0x1.034fd5902cd0cp+00, -0x1.cc44e955c5bbcp-01, -0x1.3950fba089886p-02, 0x1.507c67ab1a7e5p-01, -0x1.e8a7585c1e00cp-03, 0x1.6231f305c935ap-01, -0x1.86167cba6d3b1p+00},
		variance: [8]float64{0x1.0bc7b8c0a6218p-03, 0x1.c60ba4557476p-04, 0x1.0a26b81178d6p-04, 0x1.4b82ecb6a65b8p-03, 0x1.33435da90b52ap-02, 0x1.b138656e8ec18p-03, 0x1.9339a1888deap-03, 0x1.631eee37361ep-05},
	},
	"tlr-ranks4/svd": {
		lik:      -0x1.f780fc2baf038p+07,
		predict:  [4]float64{-0x1.43ad61497e93p+00, -0x1.034fd5902cd06p+00, -0x1.cc44e955c5bbfp-01, -0x1.3950fba08988ep-02},
		mean:     [8]float64{-0x1.43ad61497e932p+00, -0x1.034fd5902cd08p+00, -0x1.cc44e955c5bb8p-01, -0x1.3950fba0898b5p-02, 0x1.507c67ab1a7efp-01, -0x1.e8a7585c1e02fp-03, 0x1.6231f305c9356p-01, -0x1.86167cba6d3b1p+00},
		variance: [8]float64{0x1.0bc7b8c0a6218p-03, 0x1.c60ba4557473p-04, 0x1.0a26b81178d3p-04, 0x1.4b82ecb6a65c8p-03, 0x1.33435da90b52cp-02, 0x1.b138656e8ec14p-03, 0x1.9339a1888de9p-03, 0x1.631eee373612p-05},
	},
	"hodlr/svd": {
		lik:      -0x1.f780fbfa5519ep+07,
		predict:  [4]float64{-0x1.43ad60d3a6083p+00, -0x1.034fd5148f05ap+00, -0x1.cc44e9015092cp-01, -0x1.3950f9795c045p-02},
		mean:     [8]float64{-0x1.43ad60d3a607fp+00, -0x1.034fd5148f04ep+00, -0x1.cc44e90150927p-01, -0x1.3950f9795c078p-02, 0x1.507c67ae639fdp-01, -0x1.e8a75071909a5p-03, 0x1.6231f3bb7cfb7p-01, -0x1.86167d2f3984dp+00},
		variance: [8]float64{0x1.0bc7b8c0a4388p-03, 0x1.c60ba4556f2ap-04, 0x1.0a26b8117579p-04, 0x1.4b82ecb6a85cp-03, 0x1.33435da90fb82p-02, 0x1.b138656e8de58p-03, 0x1.9339a1888968p-03, 0x1.631eee3730c4p-05},
	},
	"tlr/rsvd": {
		lik:      -0x1.f780fc183cf38p+07,
		predict:  [4]float64{-0x1.43ad615e09afbp+00, -0x1.034fd482c9adap+00, -0x1.cc44ea72332f4p-01, -0x1.3950faa4de0eep-02},
		mean:     [8]float64{-0x1.43ad615e09bp+00, -0x1.034fd482c9adfp+00, -0x1.cc44ea72332f3p-01, -0x1.3950faa4de0c5p-02, 0x1.507c67a7752a4p-01, -0x1.e8a756906e854p-03, 0x1.6231f30c26aabp-01, -0x1.86167cbafcfecp+00},
		variance: [8]float64{0x1.0bc7b8c0a5e3p-03, 0x1.c60ba45574bap-04, 0x1.0a26b8117918p-04, 0x1.4b82ecb6a6de8p-03, 0x1.33435da90b60ep-02, 0x1.b138656e8ebb4p-03, 0x1.9339a1888d8c8p-03, 0x1.631eee37361ap-05},
	},
	"tlr+membudget/rsvd": {
		lik:      -0x1.f780fc183cf38p+07,
		predict:  [4]float64{-0x1.43ad615e09afbp+00, -0x1.034fd482c9adap+00, -0x1.cc44ea72332f4p-01, -0x1.3950faa4de0eep-02},
		mean:     [8]float64{-0x1.43ad615e09bp+00, -0x1.034fd482c9adfp+00, -0x1.cc44ea72332f3p-01, -0x1.3950faa4de0c5p-02, 0x1.507c67a7752a4p-01, -0x1.e8a756906e854p-03, 0x1.6231f30c26aabp-01, -0x1.86167cbafcfecp+00},
		variance: [8]float64{0x1.0bc7b8c0a5e3p-03, 0x1.c60ba45574bap-04, 0x1.0a26b8117918p-04, 0x1.4b82ecb6a6de8p-03, 0x1.33435da90b60ep-02, 0x1.b138656e8ebb4p-03, 0x1.9339a1888d8c8p-03, 0x1.631eee37361ap-05},
	},
	"tlr-ranks4/rsvd": {
		lik:      -0x1.f780fc183cf38p+07,
		predict:  [4]float64{-0x1.43ad615e09afbp+00, -0x1.034fd482c9adap+00, -0x1.cc44ea72332f4p-01, -0x1.3950faa4de0eep-02},
		mean:     [8]float64{-0x1.43ad615e09b03p+00, -0x1.034fd482c9acbp+00, -0x1.cc44ea72332f8p-01, -0x1.3950faa4de0ccp-02, 0x1.507c67a7752aep-01, -0x1.e8a756906e89cp-03, 0x1.6231f30c26aa7p-01, -0x1.86167cbafcffcp+00},
		variance: [8]float64{0x1.0bc7b8c0a5e28p-03, 0x1.c60ba45574bep-04, 0x1.0a26b8117915p-04, 0x1.4b82ecb6a6df8p-03, 0x1.33435da90b616p-02, 0x1.b138656e8ebb8p-03, 0x1.9339a1888d8c8p-03, 0x1.631eee373614p-05},
	},
	"hodlr/rsvd": {
		lik:      -0x1.f780fbd2f5525p+07,
		predict:  [4]float64{-0x1.43ad6156a23aap+00, -0x1.034fd4b681d2bp+00, -0x1.cc44e9df68984p-01, -0x1.3950fa6ab1006p-02},
		mean:     [8]float64{-0x1.43ad6156a23aap+00, -0x1.034fd4b681d1dp+00, -0x1.cc44e9df68981p-01, -0x1.3950fa6ab100bp-02, 0x1.507c67ac6f62fp-01, -0x1.e8a753237f3dp-03, 0x1.6231f3c134452p-01, -0x1.86167cbd291dfp+00},
		variance: [8]float64{0x1.0bc7b8c0a4f18p-03, 0x1.c60ba4556f38p-04, 0x1.0a26b811778cp-04, 0x1.4b82ecb6a6388p-03, 0x1.33435da910bbp-02, 0x1.b138656e8ed04p-03, 0x1.9339a18890ee8p-03, 0x1.631eee3731a8p-05},
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
