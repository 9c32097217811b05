package experiments

import (
	"sync"
	"testing"

	"intervalsim/internal/bpred"
	icache "intervalsim/internal/cache"
	"intervalsim/internal/harness"
	"intervalsim/internal/overlay"
	"intervalsim/internal/uarch"
	"intervalsim/internal/workload"
)

// TestTraceFingerprintPinned pins trace fingerprints to the bytes every
// daemon version has used: a fleet mixing versions names each trace alike,
// or peer fills silently stop hitting.
func TestTraceFingerprintPinned(t *testing.T) {
	for _, c := range []struct {
		bench string
		insts int
		want  string
	}{
		{"gzip", 1_000_000, "22ca2923004e19c5474ac4dd3baf2d1b"},
		{"mcf", 100_000, "4388e1b5627fe77f773a3c35ec604786"},
	} {
		wc, ok := workload.SuiteConfig(c.bench)
		if !ok {
			t.Fatalf("unknown workload %s", c.bench)
		}
		if got := TraceFingerprint(wc, c.insts); got != c.want {
			t.Errorf("TraceFingerprint(%s, %d) = %s, want %s", c.bench, c.insts, got, c.want)
		}
	}
}

// TestTraceCacheResident: Resident finds a trace by its fingerprint only
// once the cache holds it, returns the cached artifacts, and counts no
// lookup; ResidentOverlay likewise finds only an overlay the trace holds.
func TestTraceCacheResident(t *testing.T) {
	c := NewTraceCache(2)
	wc, _ := workload.SuiteConfig("gzip")
	const insts = 3_000
	fp := TraceFingerprint(wc, insts)
	if _, ok := c.Resident(fp); ok {
		t.Fatal("Resident found a trace the cache never built")
	}
	a, err := c.SharedVia(wc, insts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.FP != fp {
		t.Fatalf("SharedVia named the trace %s, want %s", a.FP, fp)
	}
	if a.SoA.Len() != insts || a.Trace.Len() != insts {
		t.Fatalf("trace has %d packed and %d records, want %d", a.SoA.Len(), a.Trace.Len(), insts)
	}
	base := uarch.Baseline()
	specFP := overlay.SpecFingerprint(base.Pred, base.Mem)
	if _, ok := a.ResidentOverlay(specFP); ok {
		t.Fatal("ResidentOverlay found an overlay the trace never computed")
	}
	ov, err := a.Overlay(base.Pred, base.Mem, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	before, beforeOv := c.Counters(), c.OverlayCounters()
	if r, ok := c.Resident(fp); !ok || r != a {
		t.Fatalf("Resident(%s) = (%p, %v), want the cached artifacts %p", fp, r, ok, a)
	}
	if r, ok := a.ResidentOverlay(specFP); !ok || r != ov {
		t.Fatalf("ResidentOverlay = (%p, %v), want the cached overlay %p", r, ok, ov)
	}
	if c.Counters() != before || c.OverlayCounters() != beforeOv {
		t.Errorf("Resident moved the counters: trace %+v → %+v, overlay %+v → %+v",
			before, c.Counters(), beforeOv, c.OverlayCounters())
	}
}

// TestTraceCacheGenerationError: a workload the generator rejects is an
// error from SharedVia, not a panic inside the cache's single flight.
func TestTraceCacheGenerationError(t *testing.T) {
	wc, _ := workload.SuiteConfig("gzip")
	if _, err := NewTraceCache(1).SharedVia(wc, 0, nil); err == nil {
		t.Error("SharedVia of a 0-instruction trace: want an error")
	}
}

// overlayTestTrace returns a private cache holding the gzip trace of insts
// instructions, with the predictor and cache geometry the overlay tests
// vary.
func overlayTestTrace(t *testing.T, insts int) (*TraceCache, *Artifacts, bpred.Config, icache.HierarchyConfig) {
	t.Helper()
	c := NewTraceCache(2)
	wc, _ := workload.SuiteConfig("gzip")
	a, err := c.SharedVia(wc, insts, nil)
	if err != nil {
		t.Fatal(err)
	}
	pred := bpred.Config{Kind: "tournament", Entries: 16384, HistBits: 12, BTBEntries: 4096}
	mem := icache.HierarchyConfig{
		L1I: icache.Config{Name: "L1I", Size: 64 << 10, LineSize: 64, Ways: 2, Repl: icache.LRU},
		L1D: icache.Config{Name: "L1D", Size: 64 << 10, LineSize: 64, Ways: 4, Repl: icache.LRU},
		L2:  icache.Config{Name: "L2", Size: 1 << 20, LineSize: 64, Ways: 8, Repl: icache.LRU},
		Lat: icache.Latencies{L1: 3, L2: 12, Mem: 250},
	}
	return c, a, pred, mem
}

// TestCacheSharesComputation checks a trace's overlay contract: one
// computation per distinct (predictor, geometry) key no matter how many
// concurrent callers, identity-shared results, and keys that ignore
// latency-only and label-only differences.
func TestCacheSharesComputation(t *testing.T) {
	c, a, pred, mem := overlayTestTrace(t, 5_000)

	const callers = 8
	got := make([]*overlay.Overlay, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ov, err := a.Overlay(pred, mem, nil, nil)
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = ov
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if got[i] != got[0] {
			t.Fatal("concurrent lookups returned different overlay instances")
		}
	}
	if s := c.OverlayCounters(); s.Misses != 1 || s.Hits != callers-1 {
		t.Errorf("stats = %d hits / %d misses, want %d/1", s.Hits, s.Misses, callers-1)
	}

	// Latency-only config changes hit the same entry (the sweep-sharing
	// property); a geometry change misses.
	slow := mem
	slow.Lat = icache.Latencies{L1: 1, L2: 30, Mem: 800}
	ov2, err := a.Overlay(pred, slow, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ov2 != got[0] {
		t.Error("latency-only change recomputed the overlay")
	}
	smallL1I := mem
	smallL1I.L1I.Size = 16 << 10
	ov3, err := a.Overlay(pred, smallL1I, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ov3 == got[0] {
		t.Error("geometry change shared an overlay")
	}
}

// TestCacheStressContention hammers one trace's overlays from many
// goroutines requesting a mix of identical and distinct (predictor,
// geometry) fingerprints concurrently. It asserts the single-flight
// contract the service daemon depends on under -race: each distinct key is
// computed exactly once (misses == distinct keys), every caller of a key
// receives the identity-same overlay (proof of a single computation), and
// the counters reconcile with the request volume.
func TestCacheStressContention(t *testing.T) {
	c, a, pred, mem := overlayTestTrace(t, 2_000)

	// Distinct keys: vary the predictor size and the L1I geometry, both of
	// which change a fingerprint. Latency-only variants of key 0 are also
	// thrown in — they must alias to key 0's entry, not add a key.
	type specKey struct {
		predEntries int
		l1iSize     int
	}
	specs := []specKey{
		{16384, 64 << 10},
		{8192, 64 << 10},
		{16384, 32 << 10},
		{8192, 32 << 10},
	}
	if len(specs) > artifactsPerTrace {
		t.Fatalf("%d keys exceed the %d overlays a trace keeps", len(specs), artifactsPerTrace)
	}
	const (
		goroutines = 24
		rounds     = 12
	)

	results := make([]sync.Map, len(specs)) // key index → set of *Overlay seen
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for r := 0; r < rounds; r++ {
				k := (g + r) % len(specs)
				p := pred
				p.Entries = specs[k].predEntries
				m := mem
				m.L1I.Size = specs[k].l1iSize
				if k == 0 && r%3 == 0 {
					// Latency-only change: same fingerprints, same key.
					m.Lat.Mem = 100 + r
				}
				ov, err := a.Overlay(p, m, nil, nil)
				if err != nil {
					t.Error(err)
					return
				}
				results[k].Store(ov, true)
			}
		}(g)
	}
	close(start)
	wg.Wait()

	for k := range specs {
		n := 0
		results[k].Range(func(_, _ any) bool { n++; return true })
		if n != 1 {
			t.Errorf("key %d: callers saw %d distinct overlays, want 1 (exactly-once compute)", k, n)
		}
	}
	s := c.OverlayCounters()
	if s.Misses != uint64(len(specs)) {
		t.Errorf("misses = %d, want %d (one compute per distinct fingerprint)", s.Misses, len(specs))
	}
	total := uint64(goroutines * rounds)
	if s.Hits != total-uint64(len(specs)) {
		t.Errorf("hits = %d, want %d", s.Hits, total-uint64(len(specs)))
	}
	if s.Evictions != 0 || s.Entries != len(specs) {
		t.Errorf("evictions/entries = %d/%d, want 0/%d", s.Evictions, s.Entries, len(specs))
	}
	if got := s.HitRate(); got <= 0.9 {
		t.Errorf("hit rate = %v, want > 0.9 under this request mix", got)
	}
}

// TestCacheCountersEviction checks that evictions by the per-trace bound
// are counted and exported, for overlays and model sets alike: one key more
// than a trace keeps evicts the least recently used, and asking for that
// key again evicts the next.
func TestCacheCountersEviction(t *testing.T) {
	c, a, pred, mem := overlayTestTrace(t, 1_000)
	for _, i := range append(seq(artifactsPerTrace+1), 0) {
		m := mem
		m.L1I.Size = (64 >> i) << 10
		if _, err := a.Overlay(pred, m, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	want := harness.MemoStats{Hits: 0, Misses: artifactsPerTrace + 2, Evictions: 2, Entries: artifactsPerTrace}
	if s := c.OverlayCounters(); s != want {
		t.Fatalf("OverlayCounters = %+v, want %+v", s, want)
	}

	base := uarch.Baseline()
	ov, err := a.Overlay(base.Pred, base.Mem, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, warmup := range append(seq(artifactsPerTrace+1), 0) {
		if _, err := a.ModelSet(ov, base, base.ROBSize, uint64(warmup), 1_000); err != nil {
			t.Fatal(err)
		}
	}
	if s := c.ModelCounters(); s != want {
		t.Fatalf("ModelCounters = %+v, want %+v", s, want)
	}
}

// seq returns 0, 1, ..., n-1.
func seq(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// TestArtifactCountersEvictWithTrace: evicting a trace evicts its overlays
// and model sets with it, and the counters say so, while hits and misses
// keep counting every lookup the cache has served.
func TestArtifactCountersEvictWithTrace(t *testing.T) {
	c := NewTraceCache(1)
	wc, _ := workload.SuiteConfig("gzip")
	base := uarch.Baseline()
	first, err := c.SharedVia(wc, 2_000, nil)
	if err != nil {
		t.Fatal(err)
	}
	ov, err := first.Overlay(base.Pred, base.Mem, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for range 2 {
		if _, err := first.ModelSet(ov, base, base.ROBSize, 0, 2_000); err != nil {
			t.Fatal(err)
		}
	}
	check := func(when string, ovWant, modelWant harness.MemoStats) {
		t.Helper()
		if s := c.OverlayCounters(); s != ovWant {
			t.Errorf("%s: OverlayCounters = %+v, want %+v", when, s, ovWant)
		}
		if s := c.ModelCounters(); s != modelWant {
			t.Errorf("%s: ModelCounters = %+v, want %+v", when, s, modelWant)
		}
	}
	check("resident", harness.MemoStats{Misses: 1, Entries: 1}, harness.MemoStats{Hits: 1, Misses: 1, Entries: 1})
	if _, err := c.SharedVia(wc, 2_001, nil); err != nil {
		t.Fatal(err)
	}
	check("evicted", harness.MemoStats{Misses: 1, Evictions: 1}, harness.MemoStats{Hits: 1, Misses: 1, Evictions: 1})
	if c.Counters().Evictions != 1 {
		t.Errorf("trace counters %+v, want 1 eviction", c.Counters())
	}
}

// TestOverlayCacheSeparatesPredictorKinds drives a cached trace's
// overlays: the same trace requested under two predictor kinds must come
// back as two distinct overlays with distinct outcome streams, never a
// shared entry.
func TestOverlayCacheSeparatesPredictorKinds(t *testing.T) {
	_, a, _, mem := overlayTestTrace(t, 20_000)
	tage, _ := bpred.Preset("tage")
	tour, _ := bpred.Preset("tournament")
	ovA, err := a.Overlay(tage, mem, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	ovB, err := a.Overlay(tour, mem, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ovA == ovB {
		t.Fatal("two predictor kinds shared one overlay")
	}
	if ovA.PredFP == ovB.PredFP {
		t.Fatal("predictor fingerprints collide")
	}
	diff := 0
	for i := range ovA.Code {
		if ovA.Code[i]&overlay.DirMiss != ovB.Code[i]&overlay.DirMiss {
			diff++
		}
	}
	if diff == 0 {
		t.Error("tage and tournament produced identical mispredict streams (suspicious)")
	}
	// Same config requested again must hit the memo, not recompute.
	ovA2, err := a.Overlay(tage, mem, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ovA2 != ovA {
		t.Error("identical predictor config did not share the cached overlay")
	}
}
