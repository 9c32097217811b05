package stats

import (
	"math"
	"testing"
	"testing/quick"

	"intervalsim/internal/rng"
)

func almost(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestRunningBasics(t *testing.T) {
	var r Running
	if r.Count() != 0 || r.Mean() != 0 {
		t.Fatal("zero value not empty")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		r.Add(x)
	}
	if r.Count() != 8 {
		t.Errorf("count = %d", r.Count())
	}
	if !almost(r.Mean(), 5, 1e-12) {
		t.Errorf("mean = %v, want 5", r.Mean())
	}
	if r.Min() != 2 || r.Max() != 9 {
		t.Errorf("min/max = %v/%v", r.Min(), r.Max())
	}
	if !almost(r.Sum(), 40, 1e-12) {
		t.Errorf("sum = %v, want 40", r.Sum())
	}
}

func TestLog2Histogram(t *testing.T) {
	h := NewLog2Histogram(8)
	// bucket 0: 0..1, bucket 1: 2..3, bucket 2: 4..7, ...
	h.Add(0)
	h.Add(1)
	h.Add(2)
	h.Add(3)
	h.Add(4)
	h.Add(255)     // bucket 7
	h.Add(1 << 40) // clamps into last bucket
	if h.Total() != 7 {
		t.Errorf("total = %d", h.Total())
	}
	b := h.Buckets()
	if b[0] != 2 || b[1] != 2 || b[2] != 1 || b[7] != 2 {
		t.Errorf("buckets = %v", b)
	}
	if !almost(h.Fraction(0), 2.0/7, 1e-12) {
		t.Errorf("fraction(0) = %v", h.Fraction(0))
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	cases := []struct{ p, want float64 }{
		{0, 15}, {100, 50}, {50, 35}, {25, 20}, {75, 40},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !almost(got, c.want, 1e-9) {
			t.Errorf("P%v = %v, want %v", c.p, got, c.want)
		}
	}
	// Interpolation between ranks.
	if got := Percentile([]float64{10, 20}, 50); !almost(got, 15, 1e-9) {
		t.Errorf("interpolated median = %v", got)
	}
	if got := Percentile([]float64{7}, 99); got != 7 {
		t.Errorf("single-element percentile = %v", got)
	}
	// Input must not be reordered.
	in := []float64{3, 1, 2}
	Percentile(in, 50)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Error("Percentile mutated its input")
	}
}

func TestPercentilePanics(t *testing.T) {
	for _, f := range []func(){
		func() { Percentile(nil, 50) },
		func() { Percentile([]float64{1}, -1) },
		func() { Percentile([]float64{1}, 101) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestPercentileAgainstSortedProperty(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		if n == 0 {
			return true
		}
		s := rng.New(seed)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = s.Float64() * 1000
		}
		p0, p100 := Percentile(xs, 0), Percentile(xs, 100)
		med := Percentile(xs, 50)
		return p0 <= med && med <= p100
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
