// Package cov implements the Matérn covariance family (paper §IV) and the
// construction of covariance matrices, tiles, and cross-covariance blocks
// from spatial locations. It also samples zero-mean Gaussian random fields
// with a given Matérn covariance, which is how synthetic truth data are
// produced (paper §VIII-D1).
//
// No covariance entry evaluates a Bessel function. At a smoothness without a
// closed form the kernel reads a per-ν piecewise-Chebyshev table of the
// correlation (table.go); bessel.KScaled is called only by exactH — to build
// that table (2 640 evaluations per distinct ν, memoized), for s = r/θ₂ below
// the table's first cell at 2⁻²⁰, and as the oracle of this package's tests.
package cov

import (
	"errors"
	"fmt"
	"math"
	"runtime"

	"repro/internal/bessel"
	"repro/internal/geom"
	"repro/internal/la"
	"repro/internal/rng"
)

// Params is the Matérn parameter vector θ = (θ₁, θ₂, θ₃):
// variance, spatial range, and smoothness (paper eq. 5).
type Params struct {
	Variance   float64 // θ₁ > 0
	Range      float64 // θ₂ > 0
	Smoothness float64 // θ₃ > 0
}

// Validate returns an error unless all three parameters are positive and
// finite.
func (p Params) Validate() error {
	for _, v := range []float64{p.Variance, p.Range, p.Smoothness} {
		if !(v > 0) || math.IsInf(v, 0) || math.IsNaN(v) {
			return fmt.Errorf("cov: invalid Matérn parameters %+v: %w", p, errNonPositive)
		}
	}
	return nil
}

var errNonPositive = errors.New("all parameters must be positive and finite")

func (p Params) String() string {
	return fmt.Sprintf("(θ1=%.4g, θ2=%.4g, θ3=%.4g)", p.Variance, p.Range, p.Smoothness)
}

// Kernel evaluates the Matérn covariance C(r; θ) (the paper's model) at
// distance r ≥ 0:
//
//	C(r) = θ₁ · 2^{1−θ₃}/Γ(θ₃) · (r/θ₂)^{θ₃} · K_{θ₃}(r/θ₂),  C(0) = θ₁.
//
// The half-integer smoothness values that dominate geostatistical practice
// (ν = ½, 3∕2, 5∕2) use their closed forms; every other order reads the
// per-ν correlation table (table.go) that NewKernel fetches or builds, so no
// entry of a covariance matrix runs the Bessel routine. There is one
// definition of C(r; θ): At, Block, SymBlock, Matrix and MatrixParallel all
// go through apply and agree bitwise.
type Kernel struct {
	P Params
	// precomputed 2^{1-nu}/Gamma(nu)
	norm float64
	// form is the ν dispatch, resolved once at construction.
	form form
	// tab is h_ν for form == tabulated, nil otherwise.
	tab *corrTable
}

// form names the formula apply runs.
type form uint8

const (
	tabulated form = iota // Matérn, general ν
	matern12              // Matérn ν = ½: exp(−s)
	matern32              // Matérn ν = 3∕2: (1+s)·exp(−s)
	matern52              // Matérn ν = 5∕2: (1+s+s²∕3)·exp(−s)
)

// NewKernel builds a Matérn kernel, precomputing the Γ normalization and,
// for a smoothness without a closed form, fetching its correlation table.
func NewKernel(p Params) *Kernel {
	nu := p.Smoothness
	k := &Kernel{P: p, norm: math.Exp((1-nu)*math.Ln2 - bessel.LogGamma(nu))}
	switch nu {
	case 0.5:
		k.form = matern12
	case 1.5:
		k.form = matern32
	case 2.5:
		k.form = matern52
	default:
		k.form = tabulated
		k.tab = tableFor(nu, k.norm)
	}
	return k
}

// At returns C(r; θ).
func (k *Kernel) At(r float64) float64 {
	if r <= 0 {
		return k.P.Variance
	}
	v := [1]float64{r}
	k.apply(v[:])
	return v[0]
}

// apply maps distances to covariances in place, v[j] ← C(v[j]; θ): ν is
// dispatched once and each form is one loop over the row.
func (k *Kernel) apply(v []float64) {
	variance, rng := k.P.Variance, k.P.Range
	switch k.form {
	case tabulated:
		tab := k.tab
		for j, r := range v {
			s := r / rng
			cell, t := cellOf(s)
			if cell >= tabCells || s > tabCutoff {
				v[j] = k.offTable(s)
				continue
			}
			v[j] = variance * math.Exp(-s) * tab.eval(cell, t)
		}
	case matern12:
		for j, r := range v {
			v[j] = variance * math.Exp(-(r / rng))
		}
	case matern32:
		for j, r := range v {
			s := r / rng
			v[j] = variance * (1 + s) * math.Exp(-s)
		}
	case matern52:
		for j, r := range v {
			s := r / rng
			v[j] = variance * (1 + s + s*s/3) * math.Exp(-s)
		}
	}
}

// offTable is the tabulated form outside the grid: θ₁ at s ≤ 0, the exact
// routine below 2⁻²⁰, and 0 beyond the cut-off, where e^{−s} underflows the
// product (and for a NaN distance).
func (k *Kernel) offTable(s float64) float64 {
	switch {
	case s <= 0:
		return k.P.Variance
	case s < tabMin:
		return k.P.Variance * math.Exp(-s) * exactH(k.P.Smoothness, k.norm, s)
	default:
		return 0
	}
}

// Matrix fills dst (n×n) with Σ_ij = C(d(p_i, p_j); θ) for the locations pts
// under metric m: SymBlock over all of pts.
func (k *Kernel) Matrix(dst *la.Mat, pts []geom.Point, m geom.Metric) {
	k.SymBlock(dst, pts, m)
}

// SymBlock fills dst (n×n, n = len(pts)) with the covariance of pts with
// themselves — a diagonal tile of Σ. It evaluates the lower triangle and
// mirrors it: geom.Distance is exactly symmetric in its points, so the result
// is bitwise what Block(dst, pts, pts, m) produces at half the evaluations.
func (k *Kernel) SymBlock(dst *la.Mat, pts []geom.Point, m geom.Metric) {
	if dst.Rows != len(pts) || dst.Cols != len(pts) {
		panic(fmt.Sprintf("cov: symmetric block dims %dx%d for %d points", dst.Rows, dst.Cols, len(pts)))
	}
	for i := range pts {
		k.symRow(dst, i, pts, m)
	}
}

// symRow fills row i of a symmetric block left of and on the diagonal, and
// the column above the diagonal with its mirror.
func (k *Kernel) symRow(dst *la.Mat, i int, pts []geom.Point, m geom.Metric) {
	row := dst.Row(i)[:i]
	k.row(row, m, pts[i], pts[:i])
	dst.Set(i, i, k.P.Variance)
	for j, v := range row {
		dst.Set(j, i, v)
	}
}

// MatrixParallel fills dst exactly like Matrix but splits the lower-triangle
// rows across worker goroutines — the FullBlock analogue of the per-tile
// dcmg generation tasks (paper's "parallel for" matrix generation). Rows are
// handed out in small chunks through la.ParallelFor's atomic cursor so the
// triangular cost profile (row i costs ~i kernel evaluations) load-balances
// dynamically. Each element (and its mirror) is written by exactly one
// goroutine, so the workers never contend. workers < 2 or small n runs on
// the calling goroutine.
func (k *Kernel) MatrixParallel(dst *la.Mat, pts []geom.Point, m geom.Metric, workers int) {
	n := len(pts)
	if dst.Rows != n || dst.Cols != n {
		panic(fmt.Sprintf("cov: matrix dims %dx%d for %d points", dst.Rows, dst.Cols, n))
	}
	const chunk = 16
	if n < 4*chunk {
		workers = 1
	}
	la.ParallelFor(workers, (n+chunk-1)/chunk, func(c int) {
		for i := c * chunk; i < min(c*chunk+chunk, n); i++ {
			k.symRow(dst, i, pts, m)
		}
	})
}

// Block fills dst (len(rows)×len(cols)) with the cross-covariance between
// two location subsets: dst[a][b] = C(d(rowPts[a], colPts[b])). This is the
// tile/cross-block generation kernel (the "matrix generation" task of
// ExaGeoStat) used by both the tiled dense and the TLR paths; a diagonal
// tile (rowPts and colPts the same) is SymBlock's job.
func (k *Kernel) Block(dst *la.Mat, rowPts, colPts []geom.Point, m geom.Metric) {
	if dst.Rows != len(rowPts) || dst.Cols != len(colPts) {
		panic("cov: block dims mismatch")
	}
	for i, pi := range rowPts {
		k.row(dst.Row(i), m, pi, colPts)
	}
}

// AddNugget adds a small positive value to the diagonal of an assembled
// covariance matrix. The paper works at machine precision with exact SPD
// kernels; a tiny nugget (e.g. 1e-10) keeps borderline matrices factorizable
// when locations nearly coincide.
func AddNugget(a *la.Mat, nugget float64) {
	n := a.Rows
	for i := 0; i < n; i++ {
		a.Set(i, i, a.At(i, i)+nugget)
	}
}

// SampleField draws one realization Z ~ N(0, Σ(θ)) at the given locations by
// assembling Σ, factoring it (dense Cholesky at machine precision, as the
// paper does for data generation), and returning L·e with e ~ N(0, I).
// It returns an error if Σ is not numerically SPD.
func SampleField(k *Kernel, pts []geom.Point, m geom.Metric, r *rng.Rand) ([]float64, error) {
	l, err := FieldFactor(k, pts, m)
	if err != nil {
		return nil, err
	}
	return SampleFromFactor(l, r), nil
}

// FieldFactor assembles Σ(θ) for pts and returns its lower Cholesky factor,
// both on every core (GOMAXPROCS): the fill and the factor are bit for bit
// what one core computes. Callers drawing many replicates at fixed locations
// (Monte Carlo, paper §VIII-D1) factor once and call SampleFromFactor per
// replicate.
func FieldFactor(k *Kernel, pts []geom.Point, m geom.Metric) (*la.Mat, error) {
	n, workers := len(pts), runtime.GOMAXPROCS(0)
	sigma := la.NewMat(n, n)
	k.MatrixParallel(sigma, pts, m, workers)
	AddNugget(sigma, 1e-12*k.P.Variance*float64(n))
	if err := la.PotrfParallel(sigma, workers); err != nil {
		return nil, fmt.Errorf("cov: covariance not SPD for θ=%v: %w", k.P, err)
	}
	return sigma, nil
}

// SampleFromFactor returns L·e with e ~ N(0, I) for a lower Cholesky factor.
// The rows of L are shared out over every core (GOMAXPROCS); each zᵢ is one
// left-to-right sum, so the draw does not depend on how many there are.
func SampleFromFactor(l *la.Mat, r *rng.Rand) []float64 {
	const chunk = 64
	n := l.Rows
	e := make([]float64, n)
	r.NormSlice(e)
	z := make([]float64, n)
	la.ParallelFor(runtime.GOMAXPROCS(0), (n+chunk-1)/chunk, func(c int) {
		for i := c * chunk; i < min(c*chunk+chunk, n); i++ {
			row := l.Row(i)
			var s float64
			for j := 0; j <= i && j < len(row); j++ {
				s += row[j] * e[j]
			}
			z[i] = s
		}
	})
	return z
}
