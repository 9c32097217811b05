package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

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

// TraceFingerprint names a generated workload trace: workloads are
// deterministic functions of (config, insts), so the canonical-JSON SHA-256
// of the pair content-addresses the packed trace. It is the trace's key in
// a TraceCache and its name across a fleet of daemons (peer fills), so its
// bytes never change: the durable store's identity scheme and truncation,
// version 1, kind "trace".
func TraceFingerprint(wc workload.Config, insts int) string {
	raw, err := json.Marshal(struct {
		V        int             `json:"v"`
		Kind     string          `json:"kind"`
		Workload workload.Config `json:"workload"`
		Insts    int             `json:"insts"`
	}{V: 1, Kind: "trace", Workload: wc, Insts: insts})
	if err != nil {
		panic(fmt.Sprintf("experiments: trace fingerprint marshal: %v", err))
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:16])
}

// TraceCache is a bounded single-flight cache of generated workload traces,
// keyed by TraceFingerprint. The process-wide DefaultTraceCache shares
// traces across experiments: `experiments all` asks for the same
// (workload, insts) pair from many experiments, and regenerating + repacking
// a multimillion-instruction trace each time was the second-largest cost
// after simulation itself. Services that need isolation — e.g. cmd/bench
// booting several in-process daemons that must not silently share
// artifacts — construct private instances.
type TraceCache struct {
	memo *harness.Memo[string, *suiteTrace]
}

// NewTraceCache returns a TraceCache bounded to capacity traces.
func NewTraceCache(capacity int) *TraceCache {
	return &TraceCache{memo: harness.NewMemo[string, *suiteTrace](capacity)}
}

// DefaultTraceCache is the process-wide shared trace cache. The capacity
// covers the ten-workload suite plus the E6/E8 variants; at the default 2M
// instructions an entry is ~200MB, well within the memory the experiment
// suite budgets.
var DefaultTraceCache = NewTraceCache(24)

// get returns the cached trace for (wc, insts) and its fingerprint,
// generating and packing it on first use. fill, when non-nil, is consulted
// on a miss before local generation: if it produces a packed trace (e.g.
// fetched from a fleet peer), the record layout is reconstructed from it
// with Unpack instead of regenerating the workload. Unpack is exact — Pack
// is lossless — so both layouts are identical to locally generated ones.
func (c *TraceCache) get(wc workload.Config, insts int, fill func(fp string) *trace.SoA) (*suiteTrace, string, error) {
	fp := TraceFingerprint(wc, insts)
	st, err := c.memo.Get(fp, func() (*suiteTrace, error) {
		if fill != nil {
			if soa := fill(fp); soa != nil {
				return &suiteTrace{tr: soa.Unpack(), soa: soa}, nil
			}
		}
		tr, err := trace.ReadAll(workload.MustNew(wc, insts))
		if err != nil {
			return nil, err
		}
		return &suiteTrace{tr: tr, soa: trace.Pack(tr)}, nil
	})
	return st, fp, err
}

// Shared returns both layouts of the cached trace for (wc, insts).
func (c *TraceCache) Shared(wc workload.Config, insts int) (*trace.Trace, *trace.SoA, error) {
	tr, soa, _, err := c.SharedVia(wc, insts, nil)
	return tr, soa, err
}

// SharedVia is Shared with a peer-fill hook, and also returns the trace's
// fingerprint. On a cache miss, fill runs first with that fingerprint
// (under the key's single-flight lock, so at most once per artifact) and
// local generation is the fallback when it returns nil.
func (c *TraceCache) SharedVia(wc workload.Config, insts int, fill func(fp string) *trace.SoA) (*trace.Trace, *trace.SoA, string, error) {
	st, fp, err := c.get(wc, insts, fill)
	if err != nil {
		return nil, nil, fp, err
	}
	return st.tr, st.soa, fp, nil
}

// Resident returns the packed trace named fp if the cache holds it,
// finished and without error. It never generates, never waits on a trace
// in flight, and counts no lookup, so serving what the cache holds to a
// peer does not move its hit rate.
func (c *TraceCache) Resident(fp string) (*trace.SoA, bool) {
	st, ok := c.memo.Peek(fp)
	if !ok {
		return nil, false
	}
	return st.soa, true
}

// Counters returns the cache's counter snapshot for observability surfaces.
func (c *TraceCache) Counters() harness.MemoStats { return c.memo.Counters() }

// suiteTraceFor returns the process-wide shared trace for (wc, insts),
// generating and packing it on first use.
func suiteTraceFor(wc workload.Config, insts int) (*suiteTrace, error) {
	st, _, err := DefaultTraceCache.get(wc, insts, nil)
	return st, err
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
