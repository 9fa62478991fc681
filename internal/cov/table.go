package cov

import (
	"math"
	"sync"

	"repro/internal/bessel"
)

// Correlation table for general-ν Matérn.
//
// Within one likelihood evaluation ν is fixed and the Matérn correlation is a
// function of s = r/θ₂ alone. With the decay factored out,
//
//	h_ν(s) = 2^{1−ν}/Γ(ν) · s^ν · e^{s}·K_ν(s),   C(r) = θ₁ · e^{−s} · h_ν(s),
//
// h_ν is analytic everywhere except s = 0 and varies slowly, so it is
// tabulated once per ν as a piecewise polynomial and the per-entry
// Temme/continued-fraction Bessel evaluation disappears from every caller of
// At/Block/SymBlock/Matrix/MatrixParallel.
//
// Grid: [2^tabMinExp, 2^(tabMinExp+tabOctaves)) = [2⁻²⁰, 2¹⁰) split into
// octaves of 2^tabSubBits = 8 equal cells, so a cell is named by the float's
// exponent and top three mantissa bits (one shift, no search) and the
// position inside it by the remaining 49 mantissa bits. Each cell holds the
// degree-tabDegree interpolant of h_ν at the Chebyshev nodes, stored as
// monomial coefficients in t ∈ [−1, 1) for Horner evaluation. The nearest
// singularity is s = 0, at least 17 half-widths from a cell's centre (cell
// [a, 1.125a]), so the Bernstein ellipse parameter is ρ ≥ 17 + √(17²−1) ≈ 34
// and the interpolation error ∝ ρ^−11 ≈ 1e−17 is below rounding.
//
// Outside the grid: s < 2⁻²⁰ evaluates the exact routine, s > tabCutoff is 0
// (e^{−600} underflows the product, as before the table existed).
const (
	tabMinExp  = -20
	tabOctaves = 30
	tabSubBits = 3
	tabDegree  = 10
	tabCells   = tabOctaves << tabSubBits
	tabMin     = 1.0 / (1 << -tabMinExp)
	tabCutoff  = 600

	// tabShift drops the mantissa bits below the cell index; tabBase is the
	// index of the first cell in those units.
	tabShift = 52 - tabSubBits
	tabBase  = (1023 + tabMinExp) << tabSubBits
)

// corrTable is h_ν on the grid: c[cell][i] is the coefficient of t^i.
type corrTable struct {
	c [tabCells][tabDegree + 1]float64
}

// cellOf splits s into its cell index and the position t ∈ [−1, 1) inside the
// cell, both exactly. The index is ≥ tabCells for every s outside the grid:
// zero, negative, below 2⁻²⁰, at or above 2¹⁰, infinite or NaN.
func cellOf(s float64) (cell uint, t float64) {
	bits := math.Float64bits(s)
	cell = uint(bits>>tabShift) - tabBase
	// the 49 low mantissa bits, as a float in [1, 2)
	u := math.Float64frombits(bits<<tabSubBits&(1<<52-1) | 1023<<52)
	return cell, 2*u - 3
}

// eval returns h_ν at position t of a cell.
func (tb *corrTable) eval(cell uint, t float64) float64 {
	c := &tb.c[cell]
	return c[0] + t*(c[1]+t*(c[2]+t*(c[3]+t*(c[4]+t*(c[5]+t*(c[6]+t*(c[7]+t*(c[8]+t*(c[9]+t*c[10])))))))))
}

// exactH evaluates h_ν(s) with the Temme/CF2 Bessel routine: the table's
// builder, the path below the grid, and the oracle the tests compare the
// table against. norm is 2^{1−ν}/Γ(ν). Where the product is not a number
// (s^ν underflowing against an overflowing K_ν) it is 0.
func exactH(nu, norm, s float64) float64 {
	h := norm * math.Pow(s, nu) * bessel.KScaled(nu, s)
	if math.IsNaN(h) {
		return 0
	}
	return h
}

// Interpolation constants, functions of tabDegree alone.
var (
	// chebNode[j] is the j-th Chebyshev node mapped to [0, 1].
	chebNode [tabDegree + 1]float64
	// chebFit[k][j] maps node values to the k-th Chebyshev coefficient.
	chebFit [tabDegree + 1][tabDegree + 1]float64
	// chebMono[k][i] is the coefficient of t^i in T_k(t).
	chebMono [tabDegree + 1][tabDegree + 1]float64
)

func init() {
	const n = tabDegree + 1
	for j := 0; j < n; j++ {
		theta := math.Pi * (float64(j) + 0.5) / n
		chebNode[j] = (math.Cos(theta) + 1) / 2
		for k := 0; k < n; k++ {
			w := 2.0 / n
			if k == 0 {
				w = 1.0 / n
			}
			chebFit[k][j] = w * math.Cos(float64(k)*theta)
		}
	}
	chebMono[0][0] = 1
	chebMono[1][1] = 1
	for k := 2; k < n; k++ {
		for i := 0; i < n; i++ {
			chebMono[k][i] = -chebMono[k-2][i]
			if i > 0 {
				chebMono[k][i] += 2 * chebMono[k-1][i-1]
			}
		}
	}
}

// buildTable tabulates h_ν: per cell, tabDegree+1 exact evaluations, their
// Chebyshev coefficients, then the change to the monomial basis. The two
// steps are kept apart because the Chebyshev coefficients decay like ρ^−k
// while T_k's monomial coefficients grow like 2^k; folding both into one
// matrix would have O(1) node values cancel against O(10³) weights. A cell
// the exact routine cannot evaluate (non-finite h, only at ν far outside the
// range it supports) is left zero.
func buildTable(nu, norm float64) *corrTable {
	const n = tabDegree + 1
	tb := new(corrTable)
	for cell := 0; cell < tabCells; cell++ {
		const perOctave = 1 << tabSubBits
		octave, sub := cell/perOctave, cell%perOctave
		width := math.Ldexp(1, tabMinExp+octave-tabSubBits)
		lo := width * float64(perOctave+sub)
		var f, a [n]float64
		finite := true
		for j := range f {
			f[j] = exactH(nu, norm, lo+chebNode[j]*width)
			finite = finite && !math.IsInf(f[j], 0)
		}
		if !finite {
			continue
		}
		for k := range a {
			for j, fj := range f {
				a[k] += chebFit[k][j] * fj
			}
		}
		c := &tb.c[cell]
		for k, ak := range a {
			for i := 0; i <= k; i++ {
				c[i] += ak * chebMono[k][i]
			}
		}
	}
	return tb
}

// tableMemoMax bounds the process-wide memo. A fit visits a new ν at every
// evaluation while predictions and a serving process repeat a handful of ν
// thousands of times; 32 tables (21 KiB each) keep the repeated ones resident
// through a fit's churn.
const tableMemoMax = 32

var tableMemo = struct {
	sync.Mutex
	m map[uint64]*corrTable
}{m: make(map[uint64]*corrTable)}

// tableFor returns the table of ν, building it on first use. A table is a
// pure function of ν, so a memo hit, a fresh build and two goroutines racing
// to build the same ν all yield the same bits; when the memo is full an
// arbitrary entry makes room.
func tableFor(nu, norm float64) *corrTable {
	key := math.Float64bits(nu)
	tableMemo.Lock()
	tb := tableMemo.m[key]
	tableMemo.Unlock()
	if tb != nil {
		return tb
	}
	tb = buildTable(nu, norm)
	tableMemo.Lock()
	defer tableMemo.Unlock()
	if prev := tableMemo.m[key]; prev != nil {
		return prev
	}
	if len(tableMemo.m) >= tableMemoMax {
		for k := range tableMemo.m {
			delete(tableMemo.m, k)
			break
		}
	}
	tableMemo.m[key] = tb
	return tb
}
