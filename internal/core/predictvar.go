package core

import (
	"fmt"
	"math"

	"repro/internal/cov"
	"repro/internal/geom"
)

// Prediction carries point predictions with their conditional uncertainty
// (paper eq. 3: Z₁|Z₂ ~ N(Σ₁₂Σ₂₂⁻¹Z₂, Σ₁₁ − Σ₁₂Σ₂₂⁻¹Σ₂₁)).
type Prediction struct {
	// Mean is the kriging predictor Σ₁₂Σ₂₂⁻¹Z₂ per new location.
	Mean []float64
	// Variance is the conditional variance diag(Σ₁₁ − Σ₁₂Σ₂₂⁻¹Σ₂₁).
	Variance []float64
}

// CI95 returns the half-width of the pointwise 95% prediction interval for
// location i (1.96·σ).
func (p Prediction) CI95(i int) float64 { return 1.96 * math.Sqrt(p.Variance[i]) }

// PredictWithVariance computes the conditional mean AND variance at newPts
// (paper eq. 3). It needs one factorization and one multi-right-hand-side
// forward solve:
//
//	W = L⁻¹·Σ₂₁  (n×m),  y = L⁻¹·Z₂,
//	mean_i = W[:,i]ᵀ·y,   var_i = C(0) − ‖W[:,i]‖².
//
// Convenience path wrapping Session.PredictWithVariance on a fresh Session.
func PredictWithVariance(p *Problem, newPts []geom.Point, theta cov.Params, cfg Config) (Prediction, error) {
	s, err := NewSession(p, cfg)
	if err != nil {
		return Prediction{}, err
	}
	defer s.Close()
	return s.PredictWithVariance(newPts, theta)
}

// CoverageCheck counts how many truths fall inside the pointwise 95%
// prediction intervals — the calibration diagnostic for the conditional
// variance. It returns the empirical coverage fraction.
func CoverageCheck(pr Prediction, truth []float64) (float64, error) {
	if len(truth) != len(pr.Mean) {
		return 0, fmt.Errorf("core: coverage check length mismatch %d vs %d", len(truth), len(pr.Mean))
	}
	if len(truth) == 0 {
		return 0, nil
	}
	inside := 0
	for i, tv := range truth {
		if math.Abs(tv-pr.Mean[i]) <= pr.CI95(i) {
			inside++
		}
	}
	return float64(inside) / float64(len(truth)), nil
}
