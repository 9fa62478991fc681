package cov

import (
	"fmt"
	"sort"
)

// Model identifies a parametric covariance family. The Matérn family is the
// paper's model; the others are the classical geostatistics alternatives the
// ExaGeoStat framework also ships, provided here for model comparison.
type Model int

// Covariance families.
const (
	// Matern is C(r) = θ₁·2^{1−θ₃}/Γ(θ₃)·(r/θ₂)^{θ₃}·K_{θ₃}(r/θ₂).
	Matern Model = iota
	// PoweredExponential is C(r) = θ₁·exp(−(r/θ₂)^{θ₃}), θ₃ ∈ (0, 2].
	PoweredExponential
	// GaussianModel is C(r) = θ₁·exp(−(r/θ₂)²) (the θ₃ → ∞ Matérn limit;
	// θ₃ is ignored).
	GaussianModel
	// Spherical is compactly supported:
	// C(r) = θ₁·(1 − 1.5·(r/θ₂) + 0.5·(r/θ₂)³) for r < θ₂, else 0
	// (θ₃ ignored). Compact support yields exactly sparse far tiles.
	Spherical
)

var modelNames = map[string]Model{
	"matern":    Matern,
	"powexp":    PoweredExponential,
	"gaussian":  GaussianModel,
	"spherical": Spherical,
}

// ModelByName resolves a model name ("matern", "powexp", "gaussian",
// "spherical").
func ModelByName(name string) (Model, error) {
	if name == "" {
		return Matern, nil
	}
	if m, ok := modelNames[name]; ok {
		return m, nil
	}
	var names []string
	for n := range modelNames {
		names = append(names, n)
	}
	sort.Strings(names)
	return 0, fmt.Errorf("cov: unknown model %q (have %v)", name, names)
}

func (m Model) String() string {
	for n, v := range modelNames {
		if v == m {
			return n
		}
	}
	return fmt.Sprintf("model(%d)", int(m))
}

// ValidateFor checks p against the constraints of the model.
func (m Model) ValidateFor(p Params) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if m == PoweredExponential && p.Smoothness > 2 {
		return fmt.Errorf("cov: powered exponential requires θ₃ ≤ 2, got %g", p.Smoothness)
	}
	return nil
}

// NewModelKernel builds a kernel for any supported family; all of them share
// the At/Block/SymBlock/Matrix surface (the formulas are in Kernel.apply).
func NewModelKernel(m Model, p Params) (*Kernel, error) {
	if err := m.ValidateFor(p); err != nil {
		return nil, err
	}
	return newKernel(m, p), nil
}
