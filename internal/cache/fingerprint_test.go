package cache

import "testing"

func fpHierarchy() HierarchyConfig {
	return HierarchyConfig{
		L1I: Config{Name: "L1I", Size: 64 << 10, LineSize: 64, Ways: 2, Repl: LRU},
		L1D: Config{Name: "L1D", Size: 64 << 10, LineSize: 64, Ways: 4, Repl: LRU},
		L2:  Config{Name: "L2", Size: 1 << 20, LineSize: 64, Ways: 8, Repl: LRU},
		Lat: Latencies{L1: 3, L2: 12, Mem: 250},
	}
}

// TestHierarchyFingerprintLatencyInvariant is the timing-invariance contract
// in test form: latencies decide access cost, never which level serves an
// access, so hierarchies differing only in Lat must share a fingerprint —
// that sharing is what lets one overlay serve a whole latency sweep. Labels
// are cosmetic and must not matter either.
func TestHierarchyFingerprintLatencyInvariant(t *testing.T) {
	a := fpHierarchy()
	b := fpHierarchy()
	b.Lat = Latencies{L1: 1, L2: 40, Mem: 900}
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("changing only latencies changed the hierarchy fingerprint")
	}
	c := fpHierarchy()
	c.L1I.Name, c.L1D.Name, c.L2.Name = "a", "b", "c"
	if a.Fingerprint() != c.Fingerprint() {
		t.Error("changing only cache labels changed the hierarchy fingerprint")
	}
}

// TestHierarchyFingerprintDistinct checks that every geometry change — in
// any of the three caches — moves the fingerprint, including swapping the
// same geometry tweak between L1I and L1D (the positional tags at work).
func TestHierarchyFingerprintDistinct(t *testing.T) {
	mutations := map[string]func(*HierarchyConfig){
		"L1I size": func(h *HierarchyConfig) { h.L1I.Size = 32 << 10 },
		"L1I line": func(h *HierarchyConfig) { h.L1I.LineSize = 32 },
		"L1I ways": func(h *HierarchyConfig) { h.L1I.Ways = 4 },
		"L1I repl": func(h *HierarchyConfig) { h.L1I.Repl = Random },
		"L1D size": func(h *HierarchyConfig) { h.L1D.Size = 32 << 10 },
		"L1D ways": func(h *HierarchyConfig) { h.L1D.Ways = 8 },
		"L2 size":  func(h *HierarchyConfig) { h.L2.Size = 2 << 20 },
		"L2 ways":  func(h *HierarchyConfig) { h.L2.Ways = 16 },
		"swap I/D ways": func(h *HierarchyConfig) {
			h.L1I.Ways, h.L1D.Ways = h.L1D.Ways, h.L1I.Ways
		},
	}
	base := fpHierarchy().Fingerprint()
	seen := map[uint64]string{}
	for name, mutate := range mutations {
		h := fpHierarchy()
		mutate(&h)
		fp := h.Fingerprint()
		if fp == base {
			t.Errorf("%s: geometry change did not change the fingerprint", name)
		}
		if prev, dup := seen[fp]; dup {
			t.Errorf("fingerprint collision between %s and %s", prev, name)
		}
		seen[fp] = name
	}
}

// TestHierarchyFingerprintStable pins the baseline hierarchy's hash: the
// fingerprint is a persistent cache key, so any change to the canonical
// serialization must be deliberate.
func TestHierarchyFingerprintStable(t *testing.T) {
	const want uint64 = 0xaa0e5d36d151d43e
	if got := fpHierarchy().Fingerprint(); got != want {
		t.Errorf("baseline hierarchy fingerprint = %#x, want %#x (canonical serialization changed?)", got, want)
	}
}
