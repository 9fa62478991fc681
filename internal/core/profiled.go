package core

// ProfiledLogLikelihood evaluates the profile log-likelihood: the variance
// θ₁ is concentrated out analytically. Writing Σ(θ) = θ₁·R(θ₂, θ₃) with R
// the correlation matrix, the maximizing variance for fixed (θ₂, θ₃) is
//
//	θ̂₁ = Zᵀ R⁻¹ Z / n,
//
// and the profile log-likelihood becomes
//
//	ℓ_p(θ₂, θ₃) = −n/2·(log 2π + 1 + log θ̂₁) − 1/2·log|R|.
//
// This reduces the optimizer's search from 3 dimensions to 2 — the standard
// concentrated-likelihood trick ExaGeoStat's drivers also expose.
// Convenience path wrapping Session.ProfiledLogLikelihood.
func ProfiledLogLikelihood(p *Problem, rangeP, smoothness float64, cfg Config) (logL float64, varianceHat float64, err error) {
	s, err := NewSession(p, cfg)
	if err != nil {
		return 0, 0, err
	}
	defer s.Close()
	return s.ProfiledLogLikelihood(rangeP, smoothness)
}
