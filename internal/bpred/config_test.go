package bpred

import (
	"slices"
	"testing"
)

// TestFingerprintDistinct checks that every behaviorally distinct predictor
// configuration hashes differently: the overlay cache keys on these values,
// so a collision here would silently share speculation outcomes between
// different predictors.
func TestFingerprintDistinct(t *testing.T) {
	configs := []Config{
		{Kind: "perfect"},
		{Kind: "taken"},
		{Kind: "not-taken"},
		{Kind: "bimodal", Entries: 4096},
		{Kind: "bimodal", Entries: 8192},
		{Kind: "bimodal", Entries: 4096, BTBEntries: 512},
		{Kind: "bimodal", Entries: 4096, BTBEntries: 1024},
		{Kind: "gshare", Entries: 4096, HistBits: 8},
		{Kind: "gshare", Entries: 4096, HistBits: 10},
		{Kind: "gshare", Entries: 8192, HistBits: 8},
		{Kind: "local", Entries: 4096, HistBits: 8},
		{Kind: "tournament", Entries: 16384, HistBits: 12, BTBEntries: 4096},
		{Kind: "perceptron", Entries: 512, HistBits: 24},
	}
	seen := map[uint64]Config{}
	for _, c := range configs {
		fp := c.Fingerprint()
		if prev, dup := seen[fp]; dup {
			t.Errorf("fingerprint collision: %+v and %+v both hash to %#x", prev, c, fp)
		}
		seen[fp] = c
	}
}

// TestFingerprintStable pins the hash of the repo's baseline predictor: the
// fingerprint is a persistent cache key, so any change to the canonical
// serialization must be deliberate (and must invalidate cached overlays).
// It also checks determinism across calls and that the hash distinguishes a
// value landing in one field from the same value landing in another (the
// tagged serialization's reason to exist).
func TestFingerprintStable(t *testing.T) {
	base := Config{Kind: "tournament", Entries: 16384, HistBits: 12, BTBEntries: 4096}
	const want = 0x5526c97bdbd3b0b6
	if got := base.Fingerprint(); got != want {
		t.Errorf("baseline predictor fingerprint = %#x, want %#x (canonical serialization changed?)", got, want)
	}
	if base.Fingerprint() != base.Fingerprint() {
		t.Error("fingerprint is not deterministic")
	}
	a := Config{Kind: "bimodal", Entries: 512, BTBEntries: 0}
	b := Config{Kind: "bimodal", Entries: 0, BTBEntries: 512}
	if a.Fingerprint() == b.Fingerprint() {
		t.Error("moving a value between fields did not change the fingerprint")
	}
}

// FuzzPredictorConfig pins Validate to Build: a machine configuration from
// outside the process reaches the predictor only through Validate at
// admission, and a worker builds it later from the same fields, so Validate
// must accept exactly the configurations Build constructs, and Build must
// never panic. The kind is one of the ten or an unknown one, history bits
// lie in [0, 80], and sizes in [−2, 1<<16], so a build allocates little.
func FuzzPredictorConfig(f *testing.F) {
	kinds := PresetNames()
	add := func(c Config) {
		i := slices.Index(kinds, c.Kind)
		if i < 0 {
			i = len(kinds)
		}
		f.Add(uint8(i), int32(c.Entries), uint8(c.HistBits), int32(c.BTBEntries))
	}
	for _, name := range kinds {
		p, _ := Preset(name)
		add(p)
	}
	for _, c := range []Config{
		{Kind: "gshare", Entries: 0, HistBits: 12},
		{Kind: "bimodal", Entries: 3},
		{Kind: "local", Entries: 1024, HistBits: 0},
		{Kind: "local", Entries: 1024, HistBits: 16},
		{Kind: "local", Entries: 1024, HistBits: 17},
		{Kind: "perceptron", Entries: 256, HistBits: 64},
		{Kind: "perceptron", Entries: 256, HistBits: 65},
		{Kind: "tage", Entries: 1, HistBits: 64},
		{Kind: "tournament", Entries: 1024, HistBits: 10, BTBEntries: 3},
		{Kind: "unknown", Entries: 1024, HistBits: 10, BTBEntries: 512},
	} {
		add(c)
	}
	const lo, hi = -2, 1 << 16
	size := func(v int32) int { return lo + int(uint32(v-lo)%(hi-lo+1)) }
	f.Fuzz(func(t *testing.T, kind uint8, entries int32, hist uint8, btb int32) {
		c := Config{Kind: "unknown", Entries: size(entries), HistBits: uint(hist) % 81, BTBEntries: size(btb)}
		if i := int(kind) % (len(kinds) + 1); i < len(kinds) {
			c.Kind = kinds[i]
		}
		verr := c.Validate()
		u, berr := c.Build()
		if (verr == nil) != (berr == nil) {
			t.Fatalf("%+v: Validate says %v, Build says %v", c, verr, berr)
		}
		if berr == nil && (u == nil || u.Dir == nil) {
			t.Fatalf("%+v: Build returned no direction predictor and no error", c)
		}
	})
}
