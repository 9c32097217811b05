package uarch

import (
	"intervalsim/internal/bpred"
	"intervalsim/internal/cache"
	"intervalsim/internal/overlay"
	"intervalsim/internal/stats"
)

// EventKind classifies the miss events that delimit intervals.
type EventKind uint8

// Interval-delimiting miss events. Short D-cache misses are deliberately
// not events: the paper treats them as a resolution-time contributor, not
// an interval boundary.
const (
	EvBranchMispredict EventKind = iota
	EvICacheMiss
	EvLongDMiss
	// EvValueMisspec is a confident-but-wrong value prediction: the
	// misspeculated instruction and everything younger is flushed at
	// dispatch and refetched, a branch-mispredict-shaped interval boundary
	// introduced by the value-speculation subsystem. Appended after the
	// original kinds so their numeric values stay stable.
	EvValueMisspec
)

// String names the event kind.
func (k EventKind) String() string {
	switch k {
	case EvBranchMispredict:
		return "branch-mispredict"
	case EvICacheMiss:
		return "icache-miss"
	case EvLongDMiss:
		return "long-dmiss"
	case EvValueMisspec:
		return "value-misspec"
	default:
		return "unknown-event"
	}
}

// MissEvent is one interval-delimiting miss event, in program order of the
// instruction that caused it.
type MissEvent struct {
	Kind  EventKind
	Index uint64      // dynamic instruction index in the trace
	Cycle uint64      // cycle the event was detected (0 in functional profiles)
	Level cache.Level // hierarchy level for cache events (ShortMiss/LongMiss)
	// Serial marks a long D-miss whose address depends on an earlier long
	// miss still in the window (pointer chasing): it cannot overlap that
	// miss. Parent is the trace index of that earlier miss (meaningful only
	// when Serial is set). Both are set by functional profiling (core
	// package); the cycle-level simulator leaves them zero.
	Serial bool
	Parent uint64
}

// MispredictRecord captures, for one branch misprediction, everything the
// interval-analysis decomposition needs.
type MispredictRecord struct {
	Index         uint64 // trace index of the mispredicted branch
	OldestInROB   uint64 // trace index of the ROB head when the branch dispatched
	Occupancy     int    // instructions in the window ahead of the branch at dispatch
	SinceLastMiss uint64 // instructions between the previous miss event and this branch

	DispatchCycle uint64 // cycle the branch entered the window
	IssueCycle    uint64 // cycle the branch issued to an ALU
	ResolveCycle  uint64 // cycle the branch finished executing (redirect signaled)
	ResumeCycle   uint64 // cycle the first correct-path instruction dispatched; 0 if trace ended first
}

// Penalty returns the measured misprediction penalty in cycles: the dispatch
// gap between the branch entering the window and useful dispatch resuming.
// Records without a resume (trace ended) report 0 and should be skipped.
func (r MispredictRecord) Penalty() float64 {
	if r.ResumeCycle == 0 || r.ResumeCycle <= r.DispatchCycle {
		return 0
	}
	return float64(r.ResumeCycle - r.DispatchCycle)
}

// ResolutionTime returns the branch resolution component of the penalty:
// cycles from window entry to execution.
func (r MispredictRecord) ResolutionTime() float64 {
	if r.ResolveCycle <= r.DispatchCycle {
		return 0
	}
	return float64(r.ResolveCycle - r.DispatchCycle)
}

// Options selects the optional instrumentation of a run.
type Options struct {
	// RecordEvents collects the ordered MissEvent stream.
	RecordEvents bool
	// RecordMispredicts collects a MispredictRecord per misprediction.
	RecordMispredicts bool
	// RecordLoadLevels tracks which hierarchy level served every load, for
	// the per-misprediction penalty decomposition.
	RecordLoadLevels bool
	// TimelineCycles records per-cycle dispatch counts for the first N
	// cycles (0 disables), for dispatch-rate timeline figures.
	TimelineCycles int
	// MaxInsts stops the simulation after this many instructions (0 = all).
	MaxInsts uint64
	// WarmupInsts excludes the first N committed instructions from every
	// reported statistic (caches and predictors stay warm), the standard
	// way to keep cold-start misses out of steady-state characterization.
	WarmupInsts uint64
	// SampleDetailed/SampleSkip enable sampled simulation with functional
	// warming: alternate between simulating SampleDetailed instructions
	// cycle-accurately and fast-forwarding SampleSkip instructions through
	// only the caches and branch predictor (no timing). Committed counts and
	// cycles cover the detailed phases only, so CPI estimates the full-run
	// CPI at a fraction of the cost (validated by experiment A3). Both must
	// be positive to enable.
	SampleDetailed uint64
	SampleSkip     uint64
	// WrongPathFetch models the frontend continuing down the mispredicted
	// path while the branch resolves: the wrong-path instruction lines are
	// fetched through the I-cache hierarchy (polluting — and sometimes
	// usefully prefetching — it). Wrong-path instructions are never decoded
	// or executed; this is an I-side fidelity option, off by default like
	// in the paper's trace-driven setup.
	WrongPathFetch bool
	// SampleStartSkip fast-forwards the first N instructions functionally
	// before any detailed simulation — the standard way to exclude the
	// cold-start region from a sampled run (the full-run analogue is
	// WarmupInsts). Usable with or without periodic sampling.
	SampleStartSkip uint64
	// MaxCycles aborts the simulation with an ErrWatchdog-wrapped error
	// once this many cycles have elapsed (0 = unlimited). It is the hard
	// budget that makes unattended sweeps safe against configurations far
	// slower than anticipated.
	MaxCycles uint64
	// NoProgressCycles aborts with ErrWatchdog when no instruction commits
	// for this many consecutive cycles — a model deadlock or a pathological
	// configuration. 0 means the default of 1,000,000 cycles, comfortably
	// above any legitimate stall (the longest realistic stall is a chain of
	// memory-latency misses filling the ROB).
	NoProgressCycles uint64
	// Overlay, when non-nil, enables replay mode: branch prediction outcomes
	// and L1 instruction-cache hit/miss classifications come from the
	// precomputed overlay instead of live bpred.Unit / L1I lookups (the data
	// side and the shared L2 stay live, so results are bit-identical to a
	// live run — see TestOverlayReplayMatchesLive). The overlay is used only
	// when it provably applies: the reader must stream, from its start, the
	// packed trace the overlay was computed over, the run must be unsampled
	// without wrong-path fetch, and the config's predictor and cache-geometry
	// fingerprints must match the overlay's. Otherwise the simulator silently
	// falls back to live simulation and records why in Result.Fallback.
	Overlay *overlay.Overlay
}

// sampling reports whether periodic sampled simulation is enabled.
func (o Options) sampling() bool { return o.SampleDetailed > 0 && o.SampleSkip > 0 }

// fastForwarded reports whether any functional skipping happens at all.
func (o Options) fastForwarded() bool { return o.sampling() || o.SampleStartSkip > 0 }

// sampleConfidence is the two-sided confidence level of every interval a
// sampled run reports. Fixed rather than configurable: every consumer of a
// sampled sweep row then knows what the bounds mean without more plumbing.
const sampleConfidence = 0.95

// Interval is a two-sided confidence interval for one sampled metric: the
// size-weighted ratio estimator over the measurement units (numerator sum /
// instruction sum, equal to the aggregate rate of the detailed phases) with
// its Student-t bounds at the confidence level recorded in SampleStats.
type Interval struct {
	Mean  float64 `json:"mean"`
	Lower float64 `json:"lower"`
	Upper float64 `json:"upper"`
	// RelErr is the half-width as a fraction of the mean (0 when the mean
	// is 0) — the headline "CPI known to ±x%" number of SMARTS-style runs.
	RelErr float64 `json:"rel_err"`
}

// newInterval builds the confidence interval for one per-instruction metric
// from its per-unit numerators and the per-unit committed-instruction
// counts.
func newInterval(ys, insts []float64) Interval {
	mean, half := stats.RatioCI(ys, insts, sampleConfidence)
	iv := Interval{Mean: mean, Lower: mean - half, Upper: mean + half}
	if mean != 0 {
		iv.RelErr = half / mean
	}
	return iv
}

// Covers reports whether x lies within the interval (inclusive).
func (iv Interval) Covers(x float64) bool { return x >= iv.Lower && x <= iv.Upper }

// SampleStats carries the statistical accounting of a sampled run: how many
// measurement units (detailed phases) were observed and, per metric, the
// ratio-estimator confidence interval over those units. Each interval is
// centered on the aggregate detailed-phase rate — the SMARTS point estimate
// of the whole-run rate — with bounds from the between-unit variance.
type SampleStats struct {
	Units      int     `json:"units"`
	Confidence float64 `json:"confidence"`

	CPI            Interval `json:"cpi"`
	MispredictsPKI Interval `json:"mispredicts_pki"` // mispredicts per kilo-instruction
	LongDMissesPKI Interval `json:"long_dmisses_pki"`
}

// CacheStats aggregates the three cache levels' counters.
type CacheStats struct {
	L1I, L1D, L2 cache.Stats
}

// StallCycles attributes cycles in which dispatch made no progress.
type StallCycles struct {
	BranchResolve uint64 // frontend empty: waiting on a mispredicted branch
	Refill        uint64 // frontend refilling after a redirect or I-miss
	ICacheMiss    uint64 // fetch blocked on an instruction cache miss
	ROBFull       uint64 // window full (typically a long D-miss at the head)
	IQFull        uint64 // issue queue full
	Other         uint64 // everything else (fetch-break bubbles, drained trace)
}

// Result is the outcome of one simulation.
type Result struct {
	Config Config

	// Path names the simulator path the run actually took: "soa" (live
	// speculation over the packed trace) or "soa+overlay" (packed trace with
	// replayed speculation outcomes). Sweeps report it so a silently
	// bypassed fast path is visible instead of just slow.
	Path string
	// Fallback explains every fast path this run bypassed and why (empty
	// when nothing was bypassed): a rejected overlay, and why it was
	// rejected. Multiple reasons are joined with "; ".
	Fallback string

	// Sampled is set when the run used sampled simulation; Insts and Cycles
	// then cover only the detailed phases, and Index fields in Events and
	// Records refer to dispatch order rather than trace positions (so the
	// trace-window decomposition in package core does not apply).
	Sampled bool
	// Sample carries the per-metric confidence intervals of a sampled run
	// (nil for full runs and for SampleStartSkip-only fast-forwarded runs).
	Sample *SampleStats

	Insts  uint64
	Cycles uint64

	// Miss-event counts.
	Mispredicts      uint64 // branch mispredictions (direction + target)
	ICacheMisses     uint64 // I-fetch misses (short or long)
	WrongPathIMisses uint64 // I-fetch misses on the wrong path (WrongPathFetch)
	LongDMisses      uint64 // loads served from memory
	ShortDMisses     uint64 // loads served from L2 (contributor v)
	LoadsExecuted    uint64
	ValuePredHits    uint64 // confident-correct value predictions (dependence broken)
	ValueMisspecs    uint64 // confident-wrong value predictions (pipeline flush)

	Bpred  bpred.Stats
	Caches CacheStats
	Stalls StallCycles

	// Optional instrumentation (see Options).
	Events   []MissEvent
	Records  []MispredictRecord
	Timeline []uint8 // dispatched instructions per cycle, if requested

	// LoadLevels, when Options.RecordLoadLevels is set, maps each load's
	// trace index to 1 + its cache.Level (0 = not a load / never issued).
	// Indices are absolute (unaffected by WarmupInsts), matching the Index
	// fields of Events and Records.
	LoadLevels []uint8
}

// LoadLevel returns the cache level that served the load at trace index idx.
func (r *Result) LoadLevel(idx uint64) (cache.Level, bool) {
	if idx >= uint64(len(r.LoadLevels)) || r.LoadLevels[idx] == 0 {
		return 0, false
	}
	return cache.Level(r.LoadLevels[idx] - 1), true
}

// IPC returns committed instructions per cycle.
func (r *Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Insts) / float64(r.Cycles)
}

// CPI returns cycles per instruction.
func (r *Result) CPI() float64 {
	if r.Insts == 0 {
		return 0
	}
	return float64(r.Cycles) / float64(r.Insts)
}

// AvgMispredictPenalty returns the mean measured penalty over the collected
// records (requires Options.RecordMispredicts).
func (r *Result) AvgMispredictPenalty() float64 {
	var sum float64
	n := 0
	for _, rec := range r.Records {
		if p := rec.Penalty(); p > 0 {
			sum += p
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
