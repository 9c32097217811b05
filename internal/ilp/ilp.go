// Package ilp analyzes the inherent instruction-level parallelism of a
// packed dynamic instruction stream through dependence-graph critical paths.
//
// It measures the program's ILP characteristic K(w) — the mean critical
// path over windows of w instructions — with the power-law fit
// K(w) ≈ (w/α)^(1/β) used by first-order superscalar models, and the
// branch-resolution characteristic, the drain curve a mispredicted branch
// sees. The analytic interval model in package core consumes both. The
// critical paths of each measured misprediction's own window, the paper's
// inherent-ILP and latency contributors, are computed by core.Decomposer.
package ilp

import (
	"fmt"
	"math"

	"intervalsim/internal/isa"
	"intervalsim/internal/trace"
)

// Characteristic is a program's ILP profile: the mean critical path K(w)
// under one latency table over windows of w consecutive instructions,
// together with the power-law fit K(w) ≈ (w/Alpha)^(1/Beta). Beta ≈ 2
// corresponds to the square-root ILP scaling of classic first-order models;
// larger Beta means more parallelism.
type Characteristic struct {
	Windows []int     // window sizes profiled, ascending
	K       []float64 // mean critical path per window size
	Alpha   float64
	Beta    float64
}

// IPC returns the steady-state ILP limit w/K(w) for window size w using the
// fitted model.
func (c Characteristic) IPC(w int) float64 {
	k := c.Eval(w)
	if k <= 0 {
		return 0
	}
	return float64(w) / k
}

// Eval returns the fitted K(w).
func (c Characteristic) Eval(w int) float64 {
	if w <= 0 {
		return 0
	}
	if c.Alpha <= 0 || c.Beta <= 0 {
		return float64(w) // degenerate fit: fully serial
	}
	return math.Pow(float64(w)/c.Alpha, 1/c.Beta)
}

// EvalInterp returns K(w) by piecewise-linear interpolation of the measured
// points, extrapolating with the power-law fit outside the profiled range.
func (c Characteristic) EvalInterp(w int) float64 {
	if len(c.Windows) == 0 {
		return c.Eval(w)
	}
	if w <= c.Windows[0] || w > c.Windows[len(c.Windows)-1] {
		if w == c.Windows[0] {
			return c.K[0]
		}
		return c.Eval(w)
	}
	for i := 1; i < len(c.Windows); i++ {
		if w <= c.Windows[i] {
			w0, w1 := float64(c.Windows[i-1]), float64(c.Windows[i])
			f := (float64(w) - w0) / (w1 - w0)
			return c.K[i-1]*(1-f) + c.K[i]*f
		}
	}
	return c.K[len(c.K)-1]
}

// Latencies is a per-class execution-latency table: entry c is the latency
// in cycles of an instruction of class c. Fractional values are allowed so
// expected-value latencies (e.g. an average short-miss uplift on loads) can
// be modeled.
type Latencies [isa.NumClasses]float64

// UnitLatencies is the unit-latency table: every class takes one cycle.
func UnitLatencies() Latencies {
	var t Latencies
	for c := range t {
		t[c] = 1
	}
	return t
}

// checkWindows validates a window-size ladder: non-empty, positive and
// strictly ascending.
func checkWindows(windows []int) error {
	if len(windows) == 0 {
		return fmt.Errorf("ilp: no window sizes given")
	}
	for i, w := range windows {
		if w <= 0 || (i > 0 && w <= windows[i-1]) {
			return fmt.Errorf("ilp: window sizes must be positive and ascending")
		}
	}
	return nil
}

// checkLatencies rejects a latency table with a negative or NaN entry.
func checkLatencies(lat Latencies) error {
	for c, l := range lat {
		if !(l >= 0) {
			return fmt.Errorf("ilp: %v latency %v is negative or NaN", isa.Class(c), l)
		}
	}
	return nil
}

// profiled returns how many leading records of s a pass reads: at most
// maxInsts (0 = all of them).
func profiled(s *trace.SoA, maxInsts int) int {
	if n := s.Len(); maxInsts <= 0 || maxInsts > n {
		return n
	}
	return maxInsts
}

// characteristic turns per-window sums and counts into a fitted profile.
func characteristic(windows []int, sums []float64, counts []int) Characteristic {
	k := make([]float64, len(windows))
	for i := range windows {
		if counts[i] > 0 {
			k[i] = sums[i] / float64(counts[i])
		}
	}
	return NewCharacteristic(windows, k)
}

// NewCharacteristic returns the characteristic of the measured points
// (windows[i], k[i]) with its power-law fit; windows must be ascending and
// as long as k. Both slices are copied. A point with k[i] <= 0 (a window
// size the trace was too short for) is kept but left out of the fit.
func NewCharacteristic(windows []int, k []float64) Characteristic {
	c := Characteristic{Windows: append([]int(nil), windows...), K: append([]float64(nil), k...)}
	c.fit()
	return c
}

// Profile measures the ILP characteristic of the packed trace s under the
// latency table lat, whose entries must be non-negative, over the first
// maxInsts records (0 = the whole trace). It computes critical paths over
// non-overlapping windows of each size in windows (which must be positive
// and ascending): windows of size w start at records 0, w, 2w, … for as long
// as they fit, whatever other sizes are profiled with them, so K(w) does not
// depend on the rest of the ladder.
//
// Inside a window starting at record lo, a producer counts iff its
// Dep1/Dep2/DepMem index is at least lo: the packed trace's producer of a
// source is the latest earlier writer of that register (or, for a load, the
// latest earlier store to its word), so an index below lo means the window
// holds no producer at all. Depths therefore depend on where a window
// starts, not where it ends, and windows of several sizes that start at the
// same record share one depth computation: each smaller window's critical
// path is the running maximum at its last record.
func Profile(s *trace.SoA, windows []int, lat Latencies, maxInsts int) (Characteristic, error) {
	if err := checkWindows(windows); err != nil {
		return Characteristic{}, err
	}
	if err := checkLatencies(lat); err != nil {
		return Characteristic{}, err
	}
	n := profiled(s, maxInsts)
	nw := len(windows)
	// depth[k+1] is the completion time of the k-th record from the current
	// start, as IEEE-754 bits; depth[0] is a zero sentinel, the depth of a
	// producer before the start or of none. Depths are never negative, and
	// the bits of non-negative floats order as their values do, so every
	// max below is an integer max, which compiles without a branch.
	depth := make([]uint64, windows[nw-1]+1)
	sums := make([]float64, nw)
	counts := make([]int, nw)
	next := make([]int, nw) // next start of a window of each size
	for {
		// The earliest pending window start, and the smallest and the
		// largest window starting there.
		lo, first, last := n, -1, -1
		for wi, w := range windows {
			switch at := next[wi]; {
			case at+w > n: // no more windows of this size in the trace
			case at < lo:
				lo, first, last = at, wi, wi
			case at == lo:
				last = wi
			}
		}
		if first < 0 {
			break
		}
		hi := lo + windows[last]
		meta, dep1, dep2, depMem := s.Meta[lo:hi], s.Dep1[lo:hi], s.Dep2[lo:hi], s.DepMem[lo:hi]
		var longest uint64
		wi := first
		for k := range meta {
			ready := max(depth[slot(dep1[k], lo)], depth[slot(dep2[k], lo)], depth[slot(depMem[k], lo)])
			d := math.Float64bits(math.Float64frombits(ready) + lat[meta[k]&trace.MetaClassMask])
			depth[k+1] = d
			longest = max(longest, d)
			if k+1 < windows[wi] {
				continue
			}
			// The window of size k+1 starting at lo ends here.
			sums[wi] += math.Float64frombits(longest)
			counts[wi]++
			next[wi] += windows[wi]
			// Move on to the next larger window starting at lo.
			for wi++; wi <= last && next[wi] != lo; wi++ {
			}
		}
	}
	return characteristic(windows, sums, counts), nil
}

// slot returns the depth-column slot of producer dep in the window starting
// at lo: 0, the zero sentinel, for a producer before lo or none (NoDep), or
// one past its offset from lo. The clamp is branch-free.
func slot(dep int32, lo int) int {
	o := int(dep) - lo + 1
	return o &^ (o >> 63)
}

// fit performs a least-squares power-law fit of the measured (w, K) points
// in log space: log K = (1/β) log w − (1/β) log α.
func (c *Characteristic) fit() {
	var n float64
	var sx, sy, sxx, sxy float64
	for i, w := range c.Windows {
		if c.K[i] <= 0 {
			continue
		}
		x, y := math.Log(float64(w)), math.Log(c.K[i])
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
		n++
	}
	if n < 2 {
		return
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return
	}
	slope := (n*sxy - sx*sy) / den
	intercept := (sy - slope*sx) / n
	if slope <= 0 {
		return
	}
	c.Beta = 1 / slope
	c.Alpha = math.Exp(-intercept / slope)
}

// DefaultWindows is the window-size ladder used by the experiments: powers
// of two through a 256-entry window.
func DefaultWindows() []int {
	return []int{2, 4, 8, 16, 32, 64, 128, 256}
}

// ProfileResolution measures the branch-resolution characteristic of the
// packed trace s: for each window size w, the mean resolution time of a
// conditional branch b over the w records [b+1-w, b] leading up to and
// including it, on a width-wide machine with unlimited functional units,
// across the first maxInsts records (0 = the whole trace). This is the
// drain curve a mispredicted branch actually sees — it saturates once w
// exceeds the typical depth of the chains feeding branches, unlike the
// whole-window characteristic which keeps growing. Branches are sampled
// (every sample-th) to bound cost; sample <= 0 means every branch, and a
// branch with fewer than w records up to it counts toward no w-window.
//
// Record j of the window dispatches (j-b)/width cycles relative to the
// branch, issues no earlier than one cycle after dispatch and once its
// in-window producers complete, and completes lat[class] cycles later (lat's
// entries must be non-negative, as for Profile); the result is the
// branch's completion time, floored at 0. Unlike a raw critical path this
// credits older window contents with the execution time they had before
// the branch arrived, which is why measured branch resolution saturates
// well below the whole-window critical path. Only the branch's dependence
// cone inside the window affects it, so each (branch, window) evaluates
// that cone alone, memoized in a generation-stamped scratch array.
func ProfileResolution(s *trace.SoA, windows []int, lat Latencies, width, maxInsts, sample int) (Characteristic, error) {
	if err := checkWindows(windows); err != nil {
		return Characteristic{}, err
	}
	if err := checkLatencies(lat); err != nil {
		return Characteristic{}, err
	}
	if sample <= 0 {
		sample = 1
	}
	if width <= 0 {
		width = 1
	}
	n := profiled(s, maxInsts)
	largest := windows[len(windows)-1]
	c := cone{s: s, lat: lat, width: float64(width), stamp: make([]uint32, largest), done: make([]float64, largest)}
	sums := make([]float64, len(windows))
	counts := make([]int, len(windows))
	branchSeen := 0
	for b := 0; b < n; b++ {
		if s.Class(b) != isa.Branch {
			continue
		}
		branchSeen++
		if branchSeen%sample != 0 {
			continue
		}
		for wi, w := range windows {
			if b+1 < w {
				break
			}
			c.begin(b, b+1-w)
			sums[wi] += max(c.completion(b), 0)
			counts[wi]++
		}
	}
	return characteristic(windows, sums, counts), nil
}

// cone evaluates the completion time of one branch's dependence cone inside
// one window. Entries are indexed by distance from the branch; an entry is
// valid only while its stamp equals gen, so starting a new (branch, window)
// costs one increment instead of clearing the array.
type cone struct {
	s     *trace.SoA
	lat   Latencies
	width float64
	b, lo int
	gen   uint32
	stamp []uint32
	done  []float64
}

// begin starts the evaluation of branch b in the window starting at lo.
func (c *cone) begin(b, lo int) {
	c.b, c.lo = b, lo
	c.gen++
	if c.gen == 0 { // wrapped: no stale stamp may alias the new generation
		clear(c.stamp)
		c.gen = 1
	}
}

// completion returns the completion time of record j, lo <= j <= b.
func (c *cone) completion(j int) float64 {
	k := c.b - j
	if c.stamp[k] == c.gen {
		return c.done[k]
	}
	issue := float64(j-c.b)/c.width + 1
	if p := int(c.s.Dep1[j]); p >= c.lo {
		if d := c.completion(p); d > issue {
			issue = d
		}
	}
	if p := int(c.s.Dep2[j]); p >= c.lo {
		if d := c.completion(p); d > issue {
			issue = d
		}
	}
	if p := int(c.s.DepMem[j]); p >= c.lo {
		if d := c.completion(p); d > issue {
			issue = d
		}
	}
	d := issue + c.lat[c.s.Class(j)]
	c.stamp[k], c.done[k] = c.gen, d
	return d
}
