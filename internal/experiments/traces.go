package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync/atomic"

	"intervalsim/internal/bpred"
	icache "intervalsim/internal/cache"
	"intervalsim/internal/core"
	"intervalsim/internal/harness"
	"intervalsim/internal/ilp"
	"intervalsim/internal/overlay"
	"intervalsim/internal/trace"
	"intervalsim/internal/uarch"
	"intervalsim/internal/vpred"
	"intervalsim/internal/workload"
)

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

// artifactsPerTrace bounds, separately, the overlays (one byte per
// instruction each) and the model sets (2 to 13 bytes per instruction over
// a 27-point grid) one cached trace keeps. A trace in both layouts costs
// about 73 bytes per instruction, so a full entry costs at most about 129.
const artifactsPerTrace = 4

// TraceCache is a bounded single-flight cache of generated workload traces,
// keyed by TraceFingerprint. Each entry is an Artifacts: the trace and
// everything derived from it, so evicting a trace drops its overlays and
// model sets too, and the cache's bound is the memory bound of all three.
// The process-wide DefaultTraceCache shares traces across experiments:
// `experiments all` asks for the same (workload, insts) pair from many
// experiments, and regenerating + repacking a multimillion-instruction
// trace each time was the second-largest cost after simulation itself.
// Services that need isolation — e.g. cmd/bench booting several in-process
// daemons that must not silently share artifacts — construct private
// instances.
type TraceCache struct {
	memo             *harness.Memo[string, *Artifacts]
	overlays, models lookups
}

// lookups counts an artifact kind's lookups across every trace a cache has
// held: a miss when the lookup computed the artifact, a hit otherwise.
type lookups struct{ hits, misses atomic.Uint64 }

// NewTraceCache returns a TraceCache bounded to capacity traces.
func NewTraceCache(capacity int) *TraceCache {
	return &TraceCache{memo: harness.NewMemo[string, *Artifacts](capacity)}
}

// DefaultTraceCache is the process-wide shared trace cache. The capacity
// covers the ten-workload suite plus the E6/E8 variants; at the default 2M
// instructions a trace in both layouts is ~146MB, well within the memory
// the experiment suite budgets.
var DefaultTraceCache = NewTraceCache(24)

// Artifacts is one cached trace and what is derived from it: the trace in
// both layouts, its overlays (one per speculation fingerprint) and its
// analytic model sets (one per model family), each kind bounded by
// artifactsPerTrace. Everything is immutable or safe for concurrent use, so
// one instance is shared across experiments, harness workers and requests.
type Artifacts struct {
	Trace *trace.Trace // record layout, for the penalty decomposition
	SoA   *trace.SoA   // packed layout: simulator, ILP kernels, overlays
	FP    string       // TraceFingerprint of the workload and length

	cache    *TraceCache
	overlays *harness.Memo[uint64, *overlay.Overlay]
	models   *harness.Memo[modelKey, *core.ModelSet]
}

// modelKey identifies one model family over a trace: the speculation
// fingerprint fixes the overlay; the FU and cache latencies, warmup and
// instruction budget are the rest of what a set's family shares. A set
// answers every ROB size exactly, so the key has no ROB size: a /v1/model
// request and a model-mode sweep of the same family share one set.
type modelKey struct {
	specFP uint64
	mem    icache.Latencies
	fu     uarch.PoolLatencies
	warmup uint64
	insts  int
}

// SharedVia returns the cached artifacts of (wc, insts), generating and
// packing the trace on first use. fill, when non-nil, runs first on a miss
// with the trace's fingerprint (under the key's single-flight lock, so at
// most once per trace): if it produces a packed trace (e.g. fetched from a
// fleet peer), the record layout is reconstructed from it with Unpack
// instead of regenerating the workload. Unpack is exact — Pack is lossless
// — so both layouts are identical to locally generated ones.
func (c *TraceCache) SharedVia(wc workload.Config, insts int, fill func(fp string) *trace.SoA) (*Artifacts, error) {
	fp := TraceFingerprint(wc, insts)
	return c.memo.Get(fp, func() (*Artifacts, error) {
		a := &Artifacts{
			FP:       fp,
			cache:    c,
			overlays: harness.NewMemo[uint64, *overlay.Overlay](artifactsPerTrace),
			models:   harness.NewMemo[modelKey, *core.ModelSet](artifactsPerTrace),
		}
		if fill != nil {
			if a.SoA = fill(fp); a.SoA != nil {
				a.Trace = a.SoA.Unpack()
				return a, nil
			}
		}
		gen, err := workload.New(wc, insts)
		if err != nil {
			return nil, err
		}
		if a.Trace, err = trace.ReadAll(gen); err != nil {
			return nil, err
		}
		a.SoA = trace.Pack(a.Trace)
		return a, nil
	})
}

// Resident returns the artifacts of the trace named fp if the cache holds
// it, finished and without error. It never generates, never waits on a
// trace in flight, and counts no lookup, so serving what the cache holds
// to a peer does not move its hit rate.
func (c *TraceCache) Resident(fp string) (*Artifacts, bool) { return c.memo.Peek(fp) }

// Counters returns the trace counters for observability surfaces.
func (c *TraceCache) Counters() harness.MemoStats { return c.memo.Counters() }

// OverlayCounters returns the overlay counters: hits and misses over every
// trace the cache has held, entries over the resident ones, and as
// evictions every overlay dropped, alone or with its trace.
func (c *TraceCache) OverlayCounters() harness.MemoStats {
	return c.derivedCounters(&c.overlays, func(a *Artifacts) int { return a.overlays.Counters().Entries })
}

// ModelCounters returns the model-set counters, counted as OverlayCounters
// counts overlays.
func (c *TraceCache) ModelCounters() harness.MemoStats {
	return c.derivedCounters(&c.models, func(a *Artifacts) int { return a.models.Counters().Entries })
}

func (c *TraceCache) derivedCounters(l *lookups, entries func(*Artifacts) int) harness.MemoStats {
	s := harness.MemoStats{Hits: l.hits.Load(), Misses: l.misses.Load()}
	for _, a := range c.memo.Finished() {
		s.Entries += entries(a)
	}
	// A lookup counts its miss once its computation returns, so an entry
	// still in flight may not have its miss yet.
	if n := uint64(s.Entries); s.Misses > n {
		s.Evictions = s.Misses - n
	}
	return s
}

// counted is m.Get(k, compute) counted in l: a miss when this lookup ran
// compute, a hit when it found the value computed or in flight.
func counted[K comparable, V any](m *harness.Memo[K, V], l *lookups, k K, compute func() (V, error)) (V, error) {
	ran := false
	v, err := m.Get(k, func() (V, error) {
		ran = true
		return compute()
	})
	if ran {
		l.misses.Add(1)
	} else {
		l.hits.Add(1)
	}
	return v, err
}

// Overlay returns the trace's miss-event overlay under (pred, mem, vp),
// computing it on first use; concurrent callers share one computation.
// fill, when non-nil, runs first inside the key's single flight and must
// return an overlay of this trace under exactly (pred, mem, vp), or nil to
// have it computed locally (a peer fetch, say). A nil vp is the classic
// overlay under its historical fingerprint.
func (a *Artifacts) Overlay(pred bpred.Config, mem icache.HierarchyConfig, vp *vpred.Config, fill func() *overlay.Overlay) (*overlay.Overlay, error) {
	return counted(a.overlays, &a.cache.overlays, overlay.SpecFingerprintV(pred, mem, vp), func() (*overlay.Overlay, error) {
		if fill != nil {
			if ov := fill(); ov != nil {
				return ov, nil
			}
		}
		return overlay.ComputeSpec(a.SoA, pred, mem, vp)
	})
}

// ResidentOverlay returns the overlay of speculation fingerprint specFP
// (as overlay.SpecFingerprintV computes it) if the trace holds it, finished
// and without error. Like TraceCache.Resident it never computes and counts
// nothing.
func (a *Artifacts) ResidentOverlay(specFP uint64) (*overlay.Overlay, bool) {
	return a.overlays.Peek(specFP)
}

// ModelSet returns the trace's analytic model set of base's family (its
// speculation configuration and latencies) over warmup and insts, building
// it on first use with maxROB as the window ladder it profiles up front.
// ov must be the trace's overlay under base's speculation configuration,
// as Overlay returns it. A set's answers are fully determined by its
// family, so every request and sweep point of the family shares one.
func (a *Artifacts) ModelSet(ov *overlay.Overlay, base uarch.Config, maxROB int, warmup uint64, insts int) (*core.ModelSet, error) {
	k := modelKey{
		specFP: overlay.SpecFingerprintV(base.Pred, base.Mem, base.VPred),
		mem:    base.Mem.Lat, fu: base.FU.Latencies(), warmup: warmup, insts: insts,
	}
	return counted(a.models, &a.cache.models, k, func() (*core.ModelSet, error) {
		return core.NewModelSet(a.SoA, ov, base, maxROB, warmup, insts)
	})
}

// suiteTraceFor returns the process-wide shared artifacts of (wc, insts),
// generating and packing the trace on first use.
func suiteTraceFor(wc workload.Config, insts int) (*Artifacts, error) {
	return DefaultTraceCache.SharedVia(wc, insts, nil)
}

// overlayFor returns the shared miss-event overlay of the workload's packed
// trace under cfg's speculation configuration (predictor + cache geometry +
// optional value predictor).
func overlayFor(a *Artifacts, cfg uarch.Config) (*overlay.Overlay, error) {
	return a.Overlay(cfg.Pred, cfg.Mem, cfg.VPred, nil)
}

// modelFor builds the analytic model of (wc, insts) under cfg and its
// miss-event profile from the shared packed trace and overlay, with a model
// set dedicated to cfg.
func modelFor(wc workload.Config, cfg uarch.Config, p Params) (*core.Model, *core.Profile, error) {
	a, err := suiteTraceFor(wc, p.Insts)
	if err != nil {
		return nil, nil, err
	}
	ov, err := overlayFor(a, cfg)
	if err != nil {
		return nil, nil, err
	}
	set, err := core.NewModelSet(a.SoA, ov, cfg, cfg.ROBSize, p.Warmup, p.Insts)
	if err != nil {
		return nil, nil, err
	}
	return set.For(cfg)
}

// unitCharacteristic measures the unit-latency ILP characteristic of
// (wc, insts) over the default window ladder.
func unitCharacteristic(wc workload.Config, p Params) (ilp.Characteristic, error) {
	return ilpCharacteristic(wc, ilp.DefaultWindows(), ilp.UnitLatencies(), p)
}

// ilpCharacteristic measures the ILP characteristic of (wc, insts)
// under the latency table lat over windows.
func ilpCharacteristic(wc workload.Config, windows []int, lat ilp.Latencies, p Params) (ilp.Characteristic, error) {
	a, err := suiteTraceFor(wc, p.Insts)
	if err != nil {
		return ilp.Characteristic{}, err
	}
	return ilp.Profile(a.SoA, windows, lat, p.Insts)
}
