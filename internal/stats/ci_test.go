package stats

import (
	"math"
	"testing"
)

func TestTCritTableValues(t *testing.T) {
	cases := []struct {
		df         int
		confidence float64
		want       float64
		tol        float64
	}{
		{1, 0.95, 12.706, 1e-9},
		{10, 0.95, 2.228, 1e-9},
		{30, 0.95, 2.042, 1e-9},
		{60, 0.95, 2.000, 0.01}, // interpolated in 1/df; true value 2.000
		{120, 0.95, 1.980, 0.01},
		{1_000_000, 0.95, 1.960, 1e-3},
		{5, 0.90, 2.015, 1e-9},
		{5, 0.99, 4.032, 1e-9},
		{5, 0.97, 2.571, 1e-9}, // unsupported level, equidistant: snaps to the lower (0.95)
		{5, 0.98, 4.032, 1e-9}, // unsupported level snaps to nearest (0.99)
	}
	for _, c := range cases {
		if got := tCrit(c.df, c.confidence); math.Abs(got-c.want) > c.tol {
			t.Errorf("tCrit(%d, %v) = %v, want %v ± %v", c.df, c.confidence, got, c.want, c.tol)
		}
	}
}

func TestRatioCICenterIsAggregate(t *testing.T) {
	// Deliberately unequal units: a tiny unit with an extreme per-unit ratio
	// must not drag the center away from the aggregate.
	ys := []float64{100, 110, 90, 50}
	xs := []float64{50, 55, 45, 5} // last unit: ratio 10 vs aggregate ~2.26
	ratio, half := RatioCI(ys, xs, 0.95)
	wantRatio := (100.0 + 110 + 90 + 50) / (50.0 + 55 + 45 + 5)
	if math.Abs(ratio-wantRatio) > 1e-12 {
		t.Fatalf("ratio = %v, want aggregate %v", ratio, wantRatio)
	}
	if half <= 0 {
		t.Fatalf("half-width = %v, want > 0", half)
	}

	// With identical unit sizes the ratio estimator reduces to the mean of
	// the per-unit ratios 2.5, 3, 2.75, 2.25, 3.25 and its Student-t
	// interval: mean 2.75, sample variance 0.625/4, SE sqrt(variance/5),
	// t(4, .95) = 2.776.
	ys = []float64{10, 12, 11, 9, 13}
	xs = []float64{4, 4, 4, 4, 4}
	ratio, half = RatioCI(ys, xs, 0.95)
	wantHalf := 2.776 * math.Sqrt(0.625/4/5)
	if math.Abs(ratio-2.75) > 1e-12 || math.Abs(half-wantHalf) > 1e-12 {
		t.Fatalf("equal-size units: RatioCI = (%v, %v), want (2.75, %v)", ratio, half, wantHalf)
	}

	if r, h := RatioCI(ys, xs[:3], 0.95); r != 0 || h != 0 {
		t.Errorf("mismatched lengths: got (%v, %v), want zeros", r, h)
	}
}
