package experiments

import (
	"intervalsim/internal/core"
	"intervalsim/internal/harness"
	"intervalsim/internal/ilp"
	"intervalsim/internal/overlay"
	"intervalsim/internal/trace"
	"intervalsim/internal/uarch"
	"intervalsim/internal/workload"
)

// suiteTrace is one generated workload trace in both layouts: the record
// slice the decomposer consumes, and the packed struct-of-arrays the
// simulator, the ILP profiling kernels and the overlay cache key on.
// Both are immutable once built (Predicate copies before mutating), so one
// instance is safely shared across experiments and harness workers.
type suiteTrace struct {
	tr  *trace.Trace
	soa *trace.SoA
}

// traceKey identifies a generated trace: workloads are deterministic
// functions of their Config and the instruction count.
type traceKey struct {
	wc    workload.Config
	insts int
}

// TraceCache is a bounded single-flight cache of generated workload traces.
// The process-wide DefaultTraceCache shares traces across experiments:
// `experiments all` asks for the same (workload, insts) pair from many
// experiments, and regenerating + repacking a multimillion-instruction trace
// each time was the second-largest cost after simulation itself. Services
// that need isolation — e.g. cmd/bench booting several in-process daemons
// that must not silently share artifacts — construct private instances.
type TraceCache struct {
	memo *harness.Memo[traceKey, *suiteTrace]
}

// NewTraceCache returns a TraceCache bounded to capacity traces.
func NewTraceCache(capacity int) *TraceCache {
	return &TraceCache{memo: harness.NewMemo[traceKey, *suiteTrace](capacity)}
}

// DefaultTraceCache is the process-wide shared trace cache. The capacity
// covers the ten-workload suite plus the E6/E8 variants; at the default 2M
// instructions an entry is ~200MB, well within the memory the experiment
// suite budgets.
var DefaultTraceCache = NewTraceCache(24)

// get returns the cached trace for (wc, insts), generating and packing it
// on first use. fill, when non-nil, is consulted on a miss before local
// generation: if it produces a packed trace (e.g. fetched from a fleet
// peer), the record layout is reconstructed from it with Unpack instead of
// regenerating the workload. Unpack is exact — Pack is lossless — so both
// layouts are identical to locally generated ones.
func (c *TraceCache) get(wc workload.Config, insts int, fill func() *trace.SoA) (*suiteTrace, error) {
	return c.memo.Get(traceKey{wc: wc, insts: insts}, func() (*suiteTrace, error) {
		if fill != nil {
			if soa := fill(); soa != nil {
				return &suiteTrace{tr: soa.Unpack(), soa: soa}, nil
			}
		}
		tr, err := trace.ReadAll(workload.MustNew(wc, insts))
		if err != nil {
			return nil, err
		}
		return &suiteTrace{tr: tr, soa: trace.Pack(tr)}, nil
	})
}

// Shared returns both layouts of the cached trace for (wc, insts).
func (c *TraceCache) Shared(wc workload.Config, insts int) (*trace.Trace, *trace.SoA, error) {
	st, err := c.get(wc, insts, nil)
	if err != nil {
		return nil, nil, err
	}
	return st.tr, st.soa, nil
}

// SharedVia is Shared with a peer-fill hook: on a cache miss, fill runs
// first (under the key's single-flight lock, so at most once per artifact)
// and local generation is the fallback when it returns nil.
func (c *TraceCache) SharedVia(wc workload.Config, insts int, fill func() *trace.SoA) (*trace.Trace, *trace.SoA, error) {
	st, err := c.get(wc, insts, fill)
	if err != nil {
		return nil, nil, err
	}
	return st.tr, st.soa, nil
}

// Counters returns the cache's counter snapshot for observability surfaces.
func (c *TraceCache) Counters() harness.MemoStats { return c.memo.Counters() }

// suiteTraceFor returns the process-wide shared trace for (wc, insts),
// generating and packing it on first use.
func suiteTraceFor(wc workload.Config, insts int) (*suiteTrace, error) {
	return DefaultTraceCache.get(wc, insts, nil)
}

// overlayFor returns the shared miss-event overlay of the workload's packed
// trace under cfg's speculation configuration (predictor + cache geometry +
// optional value predictor).
func overlayFor(st *suiteTrace, cfg uarch.Config) (*overlay.Overlay, error) {
	return overlay.Shared.GetSpec(st.soa, cfg.Pred, cfg.Mem, cfg.VPred)
}

// modelFor builds the analytic model of (wc, insts) under cfg and its
// miss-event profile from the shared packed trace and overlay, with a model
// set dedicated to cfg.
func modelFor(wc workload.Config, cfg uarch.Config, p Params) (*core.Model, *core.Profile, error) {
	st, err := suiteTraceFor(wc, p.Insts)
	if err != nil {
		return nil, nil, err
	}
	ov, err := overlayFor(st, cfg)
	if err != nil {
		return nil, nil, err
	}
	set, err := core.NewModelSet(st.soa, ov, cfg, cfg.ROBSize, p.Warmup, p.Insts)
	if err != nil {
		return nil, nil, err
	}
	return set.For(cfg)
}

// unitCharacteristic measures the unit-latency ILP characteristic of
// (wc, insts) over the default window ladder.
func unitCharacteristic(wc workload.Config, p Params) (ilp.Characteristic, error) {
	st, err := suiteTraceFor(wc, p.Insts)
	if err != nil {
		return ilp.Characteristic{}, err
	}
	ks, err := ilp.Profile(st.soa, ilp.DefaultWindows(), []ilp.Latencies{ilp.UnitLatencies()}, p.Insts)
	if err != nil {
		return ilp.Characteristic{}, err
	}
	return ks[0], nil
}
