package overlay

import (
	"intervalsim/internal/bpred"
	icache "intervalsim/internal/cache"
	"intervalsim/internal/harness"
	"intervalsim/internal/trace"
	"intervalsim/internal/vpred"
)

// key identifies one overlay: the exact packed trace (by identity — a SoA
// is immutable after Pack, so the pointer is a stable name for its content)
// and the canonical speculation fingerprint (see SpecFingerprint).
type key struct {
	soa    *trace.SoA
	specFP uint64
}

// Cache is a bounded in-process overlay cache: sweeps and `experiments all`
// ask it for overlays instead of calling Compute, so each (trace, predictor,
// cache geometry) pre-pass runs exactly once no matter how many timing
// points — or concurrent harness workers — share it. Keeping an entry alive
// also pins its SoA, so the bound doubles as a memory cap.
type Cache struct {
	memo *harness.Memo[key, *Overlay]
}

// NewCache returns a Cache bounded to capacity overlays (LRU-ish eviction).
func NewCache(capacity int) *Cache {
	return &Cache{memo: harness.NewMemo[key, *Overlay](capacity)}
}

// Get returns the overlay for (soa, pred, mem), computing it on first use.
// Concurrent callers with the same key share one computation.
func (c *Cache) Get(soa *trace.SoA, pred bpred.Config, mem icache.HierarchyConfig) (*Overlay, error) {
	k := key{soa: soa, specFP: SpecFingerprint(pred, mem)}
	return c.memo.Get(k, func() (*Overlay, error) {
		return Compute(soa, pred, mem)
	})
}

// GetSpec is Get extended with an optional value-predictor configuration.
// A nil vp is exactly Get — same key, same pre-pass — so vpred-less callers
// share entries with code that has never heard of value prediction.
func (c *Cache) GetSpec(soa *trace.SoA, pred bpred.Config, mem icache.HierarchyConfig, vp *vpred.Config) (*Overlay, error) {
	k := key{soa: soa, specFP: SpecFingerprintV(pred, mem, vp)}
	return c.memo.Get(k, func() (*Overlay, error) {
		return ComputeSpec(soa, pred, mem, vp)
	})
}

// GetSpecVia is GetSpec with a caller-supplied producer: on a miss the
// cache invokes fill instead of calling ComputeSpec directly, which lets the
// service layer try a peer cache fill before falling back to local
// computation. fill must return an overlay for exactly (soa, pred, mem, vp);
// concurrent callers with the same key share one invocation.
func (c *Cache) GetSpecVia(soa *trace.SoA, pred bpred.Config, mem icache.HierarchyConfig, vp *vpred.Config, fill func() (*Overlay, error)) (*Overlay, error) {
	k := key{soa: soa, specFP: SpecFingerprintV(pred, mem, vp)}
	return c.memo.Get(k, fill)
}

// Stats returns the hit/miss counts of the cache so far.
func (c *Cache) Stats() (hits, misses uint64) { return c.memo.Stats() }

// Counters returns the full counter snapshot — hits, misses, evictions, and
// live entries — for observability surfaces like intervalsimd's /metrics.
func (c *Cache) Counters() harness.MemoStats { return c.memo.Counters() }

// Shared is the process-wide overlay cache used by the experiments registry
// and the sweep tools. Sized generously relative to overlay cost (one byte
// per instruction): sixteen 2M-instruction overlays are 32MB.
var Shared = NewCache(16)
