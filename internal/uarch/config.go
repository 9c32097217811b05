// Package uarch implements a cycle-level, trace-driven model of an
// out-of-order superscalar processor: a depth-configurable frontend pipeline,
// branch prediction unit, reorder buffer and issue queue, per-class
// functional-unit pools, and a two-level cache hierarchy.
//
// It is the measurement substrate of the reproduction: the detailed
// simulator the paper validates interval analysis against. Beyond aggregate
// cycle counts it records exactly the artifacts interval analysis consumes —
// the ordered stream of miss events (branch mispredictions, I-cache misses,
// long D-cache misses) and, per misprediction, the reorder-buffer occupancy,
// the distance to the previous miss event, and the dispatch/resolve/refill
// timing that defines the misprediction penalty.
//
// Like the paper's simulator, it is trace driven: wrong-path instructions
// are not fetched (their second-order cache effects are outside the model),
// so a misprediction stalls fetch until the branch resolves and then pays
// the frontend refill, which is precisely the penalty structure under study.
package uarch

import (
	"fmt"

	"intervalsim/internal/bpred"
	"intervalsim/internal/cache"
	"intervalsim/internal/isa"
	"intervalsim/internal/vpred"
)

// FUPool configures one class of functional units.
type FUPool struct {
	Count     int  // number of units
	Latency   int  // execution latency in cycles (loads use cache latency instead)
	Pipelined bool // can a unit accept a new op every cycle?
}

// FUs configures every functional-unit pool. Branches and jumps execute on
// the IntALU pool; loads and stores share the MemPort pool (load latency
// comes from the cache hierarchy, stores retire into a store buffer in one
// cycle).
type FUs struct {
	IntALU  FUPool
	IntMul  FUPool
	IntDiv  FUPool
	FPAdd   FUPool
	FPMul   FUPool
	FPDiv   FUPool
	MemPort FUPool
}

// Scale returns a copy with every latency multiplied by factor (minimum 1),
// used by the functional-unit-latency experiments.
func (f FUs) Scale(factor float64) FUs {
	s := func(p FUPool) FUPool {
		l := int(float64(p.Latency)*factor + 0.5)
		if l < 1 {
			l = 1
		}
		p.Latency = l
		return p
	}
	return FUs{
		IntALU: s(f.IntALU), IntMul: s(f.IntMul), IntDiv: s(f.IntDiv),
		FPAdd: s(f.FPAdd), FPMul: s(f.FPMul), FPDiv: s(f.FPDiv),
		MemPort: f.MemPort,
	}
}

// PredictorSpec selects and sizes the branch prediction unit. It is an
// alias for bpred.Config, which is where the type (with its Build and
// canonical Fingerprint methods) now lives; the alias keeps existing
// configuration literals compiling unchanged.
type PredictorSpec = bpred.Config

// Config describes the modeled processor.
type Config struct {
	Name string

	FetchWidth    int // instructions fetched per cycle
	DispatchWidth int // rename/dispatch width — the D of interval analysis
	IssueWidth    int // maximum instructions issued to FUs per cycle
	CommitWidth   int // maximum instructions retired per cycle

	// FrontendDepth is the number of pipeline stages between fetch and
	// dispatch: the classic "misprediction penalty" that the paper shows to
	// be only one of five contributors.
	FrontendDepth int

	ROBSize int // reorder buffer entries
	IQSize  int // issue queue entries (dispatched but not yet issued)

	FU   FUs
	Pred PredictorSpec
	Mem  cache.HierarchyConfig

	// VPred, when non-nil, enables value prediction: eligible results
	// (loads and register-writing integer ALU ops) are predicted at fetch,
	// confident-correct predictions break the dependence on the producer,
	// and confident-wrong ones flush the pipeline at dispatch — a new
	// miss-event class. Nil (the default) is the classic machine; omitempty
	// keeps canonical JSON of default configs — and thus store keys —
	// byte-stable.
	VPred *vpred.Config `json:"VPred,omitempty"`

	// FetchRate, when in (0,1), enables Ramachandran & Johnson-style
	// variable instruction fetch: while a low-confidence branch is in
	// flight the frontend fetches at only FetchRate of FetchWidth, trading
	// misspeculated-fetch work against refill latency. 0 (the default) and
	// 1 both mean full-rate fetch, byte-identical to the classic machine.
	FetchRate float64 `json:"FetchRate,omitempty"`
}

// Validate reports the first configuration problem, if any. Every error
// wraps ErrBadConfig, so harnesses can classify it as permanent.
func (c Config) Validate() error {
	for _, f := range []struct {
		name string
		v    int
	}{
		{"FetchWidth", c.FetchWidth}, {"DispatchWidth", c.DispatchWidth},
		{"IssueWidth", c.IssueWidth}, {"CommitWidth", c.CommitWidth},
		{"FrontendDepth", c.FrontendDepth}, {"ROBSize", c.ROBSize},
		{"IQSize", c.IQSize},
	} {
		if f.v <= 0 {
			return fmt.Errorf("%w: %s: %s must be positive", ErrBadConfig, c.Name, f.name)
		}
	}
	if c.IQSize > c.ROBSize {
		return fmt.Errorf("%w: %s: IQSize %d exceeds ROBSize %d", ErrBadConfig, c.Name, c.IQSize, c.ROBSize)
	}
	pools := []struct {
		name string
		p    FUPool
	}{
		{"IntALU", c.FU.IntALU}, {"IntMul", c.FU.IntMul}, {"IntDiv", c.FU.IntDiv},
		{"FPAdd", c.FU.FPAdd}, {"FPMul", c.FU.FPMul}, {"FPDiv", c.FU.FPDiv},
		{"MemPort", c.FU.MemPort},
	}
	for _, pl := range pools {
		if pl.p.Count <= 0 || pl.p.Latency <= 0 {
			return fmt.Errorf("%w: %s: FU pool %s needs positive count and latency", ErrBadConfig, c.Name, pl.name)
		}
	}
	if err := c.Pred.Validate(); err != nil {
		return fmt.Errorf("%w: %s: %v", ErrBadConfig, c.Name, err)
	}
	if err := c.Mem.Validate(); err != nil {
		return fmt.Errorf("%w: %s: %v", ErrBadConfig, c.Name, err)
	}
	if c.VPred != nil {
		if err := c.VPred.Validate(); err != nil {
			return fmt.Errorf("%w: %s: %v", ErrBadConfig, c.Name, err)
		}
	}
	if c.FetchRate < 0 || c.FetchRate > 1 {
		return fmt.Errorf("%w: %s: FetchRate %v out of [0,1]", ErrBadConfig, c.Name, c.FetchRate)
	}
	return nil
}

// poolFor maps an instruction class to its functional-unit pool index.
// Branches and jumps resolve on integer ALUs; loads and stores share ports.
func poolFor(class isa.Class) int {
	switch class {
	case isa.IntALU, isa.Branch, isa.Jump:
		return 0
	case isa.IntMul:
		return 1
	case isa.IntDiv:
		return 2
	case isa.FPAdd:
		return 3
	case isa.FPMul:
		return 4
	case isa.FPDiv:
		return 5
	default: // Load, Store
		return 6
	}
}

const numPools = 7

// pools returns the pool configurations indexed by poolFor.
func (f FUs) pools() [numPools]FUPool {
	return [numPools]FUPool{f.IntALU, f.IntMul, f.IntDiv, f.FPAdd, f.FPMul, f.FPDiv, f.MemPort}
}

// PoolLatencies holds the execution latency of every FU pool, in the order
// of the FUs fields.
type PoolLatencies [numPools]int

// Latencies returns every pool's execution latency: the part of the FU
// configuration the analytic model reads (counts and pipelining gate issue
// bandwidth in the detailed simulator only).
func (f FUs) Latencies() PoolLatencies {
	var l PoolLatencies
	for i, p := range f.pools() {
		l[i] = p.Latency
	}
	return l
}

// OpLatency returns the fixed execution latency for class, or 0 for loads
// (whose latency comes from the cache hierarchy).
func (f FUs) OpLatency(class isa.Class) int {
	switch class {
	case isa.IntALU, isa.Branch, isa.Jump:
		return f.IntALU.Latency
	case isa.IntMul:
		return f.IntMul.Latency
	case isa.IntDiv:
		return f.IntDiv.Latency
	case isa.FPAdd:
		return f.FPAdd.Latency
	case isa.FPMul:
		return f.FPMul.Latency
	case isa.FPDiv:
		return f.FPDiv.Latency
	case isa.Store:
		return 1 // into the store buffer
	default: // Load
		return 0
	}
}

// Baseline returns the paper-style 4-wide baseline processor (Table T1 of
// DESIGN.md): 4-wide dispatch/issue/commit, 5-stage frontend, 128-entry ROB,
// tournament predictor + BTB, 64KB L1s, 1MB L2, 250-cycle memory.
func Baseline() Config {
	return Config{
		Name:          "base4w",
		FetchWidth:    4,
		DispatchWidth: 4,
		IssueWidth:    4,
		CommitWidth:   4,
		FrontendDepth: 5,
		ROBSize:       128,
		IQSize:        64,
		FU: FUs{
			IntALU:  FUPool{Count: 4, Latency: 1, Pipelined: true},
			IntMul:  FUPool{Count: 2, Latency: 3, Pipelined: true},
			IntDiv:  FUPool{Count: 1, Latency: 20, Pipelined: false},
			FPAdd:   FUPool{Count: 2, Latency: 2, Pipelined: true},
			FPMul:   FUPool{Count: 1, Latency: 4, Pipelined: true},
			FPDiv:   FUPool{Count: 1, Latency: 12, Pipelined: false},
			MemPort: FUPool{Count: 2, Latency: 1, Pipelined: true},
		},
		Pred: PredictorSpec{Kind: "tournament", Entries: 16384, HistBits: 12, BTBEntries: 4096},
		Mem: cache.HierarchyConfig{
			L1I: cache.Config{Name: "L1I", Size: 64 << 10, LineSize: 64, Ways: 2, Repl: cache.LRU},
			L1D: cache.Config{Name: "L1D", Size: 64 << 10, LineSize: 64, Ways: 4, Repl: cache.LRU},
			L2:  cache.Config{Name: "L2", Size: 1 << 20, LineSize: 64, Ways: 8, Repl: cache.LRU},
			Lat: cache.Latencies{L1: 3, L2: 12, Mem: 250},
		},
	}
}
