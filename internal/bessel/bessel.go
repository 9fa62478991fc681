// Package bessel implements the special functions needed by the Matérn
// covariance family: the modified Bessel function of the second kind K_ν for
// real order ν ≥ 0, plus small Γ-related helpers.
//
// The algorithm follows the classical Temme / continued-fraction split used
// by reference implementations (Abramowitz & Stegun §9.6, Temme 1975):
//
//   - for x < 2, K_μ and K_{μ+1} (|μ| ≤ ½) come from Temme's power series;
//   - for x ≥ 2 they come from the Steed-style continued fraction CF2;
//   - forward recurrence K_{ν+1}(x) = K_{ν-1}(x) + (2ν/x)·K_ν(x) lifts the
//     order from μ to the requested ν.
//
// Accuracy is ~1e-12 relative over the parameter ranges geostatistics uses
// (ν ∈ (0, 5], x ∈ (0, 700)); the tests pin reference values.
//
// This is the reference routine, not a hot path: its one caller outside tests
// is cov.exactH, which samples KScaled to build the per-ν correlation table
// covariance assembly reads (and answers directly for r/θ₂ < 2⁻²⁰). Speed
// matters here only through that table's build time (about 0.2 µs a sample).
package bessel

import (
	"math"
)

const (
	eps   = 1e-16
	maxIt = 20000
	euler = 0.57721566490153286060651209008240243104215933593992
)

// K returns K_ν(x), the modified Bessel function of the second kind of real
// order ν ≥ 0 at x > 0. It returns +Inf for x ≤ 0 (K diverges at the origin)
// and NaN for negative ν (callers use K_|ν| = K_ν symmetry themselves if
// needed; Matérn smoothness is always positive).
func K(nu, x float64) float64 {
	k, _ := kPair(nu, x, false)
	return k
}

// KScaled returns e^x · K_ν(x), which stays representable for large x where
// K_ν itself underflows.
func KScaled(nu, x float64) float64 {
	k, _ := kPair(nu, x, true)
	return k
}

// kPair computes (K_ν, K_{ν+1}), optionally scaled by e^x.
func kPair(nu, x float64, scaled bool) (knu, knu1 float64) {
	if nu < 0 {
		return math.NaN(), math.NaN()
	}
	if x <= 0 {
		return math.Inf(1), math.Inf(1)
	}
	n := int(nu + 0.5)
	mu := nu - float64(n) // |mu| <= 1/2
	xi2 := 2 / x

	var rkmu, rk1 float64
	if x < 2 {
		rkmu, rk1 = temmeSeries(mu, x)
		if scaled {
			ex := math.Exp(x)
			rkmu *= ex
			rk1 *= ex
		}
	} else {
		rkmu, rk1 = cf2(mu, x, scaled)
	}
	// Forward recurrence to raise the order from mu to nu.
	for i := 1; i <= n; i++ {
		rktemp := (mu+float64(i))*xi2*rk1 + rkmu
		rkmu = rk1
		rk1 = rktemp
	}
	return rkmu, rk1
}

// temmeSeries evaluates K_mu(x) and K_{mu+1}(x) for x < 2, |mu| ≤ 1/2 using
// Temme's series.
func temmeSeries(mu, x float64) (kmu, kmu1 float64) {
	x2 := 0.5 * x
	pimu := math.Pi * mu
	fact := 1.0
	if math.Abs(pimu) > eps {
		fact = pimu / math.Sin(pimu)
	}
	d := -math.Log(x2)
	e := mu * d
	fact2 := 1.0
	if math.Abs(e) > eps {
		fact2 = math.Sinh(e) / e
	}
	gam1, gam2, gampl, gammi := gammaTemme(mu)
	ff := fact * (gam1*math.Cosh(e) + gam2*fact2*d)
	sum := ff
	e = math.Exp(e)
	p := 0.5 * e / gampl
	q := 0.5 / (e * gammi)
	c := 1.0
	dd := x2 * x2
	sum1 := p
	mu2 := mu * mu
	for i := 1; i <= maxIt; i++ {
		fi := float64(i)
		ff = (fi*ff + p + q) / (fi*fi - mu2)
		c *= dd / fi
		p /= fi - mu
		q /= fi + mu
		del := c * ff
		sum += del
		del1 := c * (p - fi*ff)
		sum1 += del1
		if math.Abs(del) < math.Abs(sum)*eps {
			break
		}
	}
	return sum, sum1 * (2 / x)
}

// cf2 evaluates K_mu(x) and K_{mu+1}(x) for x ≥ 2, |mu| ≤ 1/2 using the
// continued fraction CF2 (Thompson & Barnett steepest-descent form).
func cf2(mu, x float64, scaled bool) (kmu, kmu1 float64) {
	mu2 := mu * mu
	b := 2 * (1 + x)
	d := 1 / b
	h := d
	delh := d
	q1, q2 := 0.0, 1.0
	a1 := 0.25 - mu2
	q := a1
	c := a1
	a := -a1
	s := 1 + q*delh
	for i := 2; i <= maxIt; i++ {
		a -= 2 * float64(i-1)
		c = -a * c / float64(i)
		qnew := (q1 - b*q2) / a
		q1 = q2
		q2 = qnew
		q += c * qnew
		b += 2
		d = 1 / (b + a*d)
		delh = (b*d - 1) * delh
		h += delh
		dels := q * delh
		s += dels
		if math.Abs(dels/s) < eps {
			break
		}
	}
	h = a1 * h
	pref := math.Sqrt(math.Pi/(2*x)) / s
	if !scaled {
		pref *= math.Exp(-x)
	}
	kmu = pref
	kmu1 = kmu * (mu + x + 0.5 - h) / x
	return kmu, kmu1
}

// gammaTemme returns the four Γ-related quantities Temme's series needs:
//
//	gam1  = (1/Γ(1−μ) − 1/Γ(1+μ)) / (2μ)
//	gam2  = (1/Γ(1−μ) + 1/Γ(1+μ)) / 2
//	gampl = 1/Γ(1+μ),  gammi = 1/Γ(1−μ)
func gammaTemme(mu float64) (gam1, gam2, gampl, gammi float64) {
	gampl = 1 / math.Gamma(1+mu)
	gammi = 1 / math.Gamma(1-mu)
	if math.Abs(mu) < 1e-5 {
		// Taylor expansion: gam1(μ) = −γ − c₃μ² + O(μ⁴) with
		// c₃ = ζ(3)/3 − γπ²/12 + γ³/6; avoids the catastrophic cancellation
		// the direct quotient suffers for tiny μ.
		const c3 = -0.04200267288081598
		gam1 = -euler - c3*mu*mu
	} else {
		gam1 = (gammi - gampl) / (2 * mu)
	}
	gam2 = (gammi + gampl) / 2
	return
}

// LogGamma returns ln Γ(x) for x > 0 (thin wrapper to keep the call sites in
// this repository uniform and testable).
func LogGamma(x float64) float64 {
	lg, _ := math.Lgamma(x)
	return lg
}

// Gamma returns Γ(x).
func Gamma(x float64) float64 { return math.Gamma(x) }
