// Package stats provides the small statistics toolkit used by the
// experiments and the service: running means, power-of-two histograms,
// percentiles, sliding-window quantiles and rates, and Student-t
// confidence intervals.
//
// It exists so experiment code states *what* it measures, not how the
// bookkeeping works, and so every figure in EXPERIMENTS.md is produced by
// the same, tested aggregation paths.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Running accumulates count, mean, min and max of a stream of observations
// without storing them. The zero value is ready to use.
type Running struct {
	n    uint64
	mean float64
	min  float64
	max  float64
}

// Add records one observation.
func (r *Running) Add(x float64) {
	r.n++
	if r.n == 1 {
		r.min, r.max = x, x
	} else {
		if x < r.min {
			r.min = x
		}
		if x > r.max {
			r.max = x
		}
	}
	r.mean += (x - r.mean) / float64(r.n)
}

// Count returns the number of observations.
func (r *Running) Count() uint64 { return r.n }

// Mean returns the arithmetic mean, or 0 with no observations.
func (r *Running) Mean() float64 { return r.mean }

// Sum returns the total of all observations.
func (r *Running) Sum() float64 { return r.mean * float64(r.n) }

// Min returns the smallest observation, or 0 with no observations.
func (r *Running) Min() float64 { return r.min }

// Max returns the largest observation, or 0 with no observations.
func (r *Running) Max() float64 { return r.max }

// Log2Histogram counts observations in power-of-two buckets: bucket i holds
// values v with 2^i <= v < 2^(i+1); bucket 0 also holds v < 1.
type Log2Histogram struct {
	counts []uint64
	total  uint64
}

// NewLog2Histogram returns a histogram with nbuckets power-of-two buckets;
// values at or beyond 2^nbuckets land in the last bucket.
func NewLog2Histogram(nbuckets int) *Log2Histogram {
	if nbuckets <= 0 {
		panic("stats: log2 histogram needs positive bucket count")
	}
	return &Log2Histogram{counts: make([]uint64, nbuckets)}
}

// Add records one non-negative observation.
func (h *Log2Histogram) Add(v uint64) {
	h.total++
	i := 0
	for v > 1 && i < len(h.counts)-1 {
		v >>= 1
		i++
	}
	h.counts[i]++
}

// Buckets returns the per-bucket counts.
func (h *Log2Histogram) Buckets() []uint64 { return h.counts }

// Total returns the number of observations recorded.
func (h *Log2Histogram) Total() uint64 { return h.total }

// Fraction returns bucket i's share of all observations.
func (h *Log2Histogram) Fraction(i int) float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.counts[i]) / float64(h.total)
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using linear
// interpolation between closest ranks. It panics on an empty slice or an
// out-of-range p. xs is not modified.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		panic("stats: percentile of empty slice")
	}
	if p < 0 || p > 100 {
		panic(fmt.Sprintf("stats: percentile %v out of range", p))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}
