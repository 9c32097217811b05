package stats

import "math"

// Student-t two-sided critical values, indexed by confidence level. Rows
// cover df = 1..30 exactly; beyond that the quantile is interpolated in
// 1/df down to the normal limit (the last entry), which is the standard
// table treatment and keeps the function fully deterministic.
var tTable = map[float64][]float64{
	0.90: {6.314, 2.920, 2.353, 2.132, 2.015, 1.943, 1.895, 1.860, 1.833, 1.812,
		1.796, 1.782, 1.771, 1.761, 1.753, 1.746, 1.740, 1.734, 1.729, 1.725,
		1.721, 1.717, 1.714, 1.711, 1.708, 1.706, 1.703, 1.701, 1.699, 1.697,
		1.645},
	0.95: {12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
		2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
		2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
		1.960},
	0.99: {63.657, 9.925, 5.841, 4.604, 4.032, 3.707, 3.499, 3.355, 3.250, 3.169,
		3.106, 3.055, 3.012, 2.977, 2.947, 2.921, 2.898, 2.878, 2.861, 2.845,
		2.831, 2.819, 2.807, 2.797, 2.787, 2.779, 2.771, 2.763, 2.756, 2.750,
		2.576},
}

// tCrit returns the two-sided Student-t critical value for the given degrees
// of freedom at one of the supported confidence levels (0.90, 0.95, 0.99).
// Unsupported levels snap to the nearest supported one.
func tCrit(df int, confidence float64) float64 {
	best, bestDist := 0.95, math.Inf(1)
	for _, level := range []float64{0.90, 0.95, 0.99} { // fixed order: ties snap low
		if d := math.Abs(level - confidence); d < bestDist {
			best, bestDist = level, d
		}
	}
	row := tTable[best]
	last := len(row) - 1 // row[last] is the df→∞ (normal) limit
	if df < 1 {
		df = 1
	}
	if df <= last {
		return row[df-1]
	}
	// Interpolate linearly in 1/df between the last tabulated df and the
	// normal limit: accurate to <0.2% over the whole range.
	t30 := row[last-1]
	tInf := row[last]
	frac := float64(last) / float64(df) // 1 at df=last, →0 as df→∞
	return tInf + (t30-tInf)*frac
}

// RatioCI returns the ratio estimator R = Σy/Σx over paired observations and
// the half-width of its two-sided Student-t confidence interval at the given
// confidence level, using the standard linearized (Taylor) variance of a
// ratio: Var(R) ≈ s²_d / (n·x̄²) with dᵢ = yᵢ − R·xᵢ.
//
// This is the estimator systematic sampling wants for per-instruction rates
// (CPI, misses per kilo-instruction): units are weighted by their size, so a
// small trailing unit with an extreme per-unit ratio cannot drag the center
// away from the aggregate the full set of units actually measured.
func RatioCI(ys, xs []float64, confidence float64) (ratio, halfWidth float64) {
	n := len(ys)
	if n == 0 || n != len(xs) {
		return 0, 0
	}
	var sy, sx float64
	for i := range ys {
		sy += ys[i]
		sx += xs[i]
	}
	if sx == 0 {
		return 0, 0
	}
	ratio = sy / sx
	if n < 2 {
		return ratio, 0
	}
	xbar := sx / float64(n)
	var sd2 float64
	for i := range ys {
		d := ys[i] - ratio*xs[i]
		sd2 += d * d
	}
	sd2 /= float64(n - 1)
	se := math.Sqrt(sd2/float64(n)) / xbar
	return ratio, tCrit(n-1, confidence) * se
}
