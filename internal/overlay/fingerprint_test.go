package overlay

import (
	"encoding/json"
	"testing"

	"intervalsim/internal/bpred"
	"intervalsim/internal/cache"
)

// TestSpecFingerprintDistinctAcrossPredictorKinds: configurations that
// differ only in predictor must never share a speculation fingerprint —
// that fingerprint keys a cached trace's overlays and the durable result
// store, so a collision would silently replay one predictor's mispredict
// stream as another's.
func TestSpecFingerprintDistinctAcrossPredictorKinds(t *testing.T) {
	mem := cache.HierarchyConfig{
		L1I: cache.Config{Name: "L1I", Size: 64 << 10, LineSize: 64, Ways: 2, Repl: cache.LRU},
		L1D: cache.Config{Name: "L1D", Size: 64 << 10, LineSize: 64, Ways: 4, Repl: cache.LRU},
		L2:  cache.Config{Name: "L2", Size: 1 << 20, LineSize: 64, Ways: 8, Repl: cache.LRU},
		Lat: cache.Latencies{L1: 3, L2: 12, Mem: 250},
	}
	seen := map[uint64]string{}
	// Every preset kind, plus same-kind sizing variants.
	var preds []bpred.Config
	for _, name := range bpred.PresetNames() {
		c, _ := bpred.Preset(name)
		preds = append(preds, c)
	}
	preds = append(preds,
		bpred.Config{Kind: "tage", Entries: 2048, HistBits: 64, BTBEntries: 4096},
		bpred.Config{Kind: "tage", Entries: 1024, HistBits: 128, BTBEntries: 4096},
		bpred.Config{Kind: "2bc-gskew", Entries: 4096, HistBits: 13, BTBEntries: 4096},
	)
	for _, p := range preds {
		fp := SpecFingerprint(p, mem)
		if prev, dup := seen[fp]; dup {
			t.Errorf("predictors %q and %+v share spec fingerprint %#x", prev, p, fp)
		}
		seen[fp] = p.Kind
	}
}

// TestPredFingerprintJSONFieldOrderInsensitive: the service layer round-trips
// predictor configs through JSON documents; two documents carrying the same
// fields in different order must decode to configs with identical
// fingerprints, while changing any field value must change it.
func TestPredFingerprintJSONFieldOrderInsensitive(t *testing.T) {
	docA := []byte(`{"Kind":"tage","Entries":1024,"HistBits":64,"BTBEntries":4096}`)
	docB := []byte(`{"BTBEntries":4096,"HistBits":64,"Kind":"tage","Entries":1024}`)
	var a, b bpred.Config
	if err := json.Unmarshal(docA, &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(docB, &b); err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("field order changed the fingerprint")
	}
	var c bpred.Config
	if err := json.Unmarshal([]byte(`{"Kind":"tage","Entries":2048,"HistBits":64,"BTBEntries":4096}`), &c); err != nil {
		t.Fatal(err)
	}
	if c.Fingerprint() == a.Fingerprint() {
		t.Error("entry-count change did not move the fingerprint")
	}
	// A field's value landing in a different field must not alias (the
	// tagged serialization's job).
	var d, e bpred.Config
	json.Unmarshal([]byte(`{"Kind":"gshare","Entries":512}`), &d)
	json.Unmarshal([]byte(`{"Kind":"gshare","BTBEntries":512}`), &e)
	if d.Fingerprint() == e.Fingerprint() {
		t.Error("cross-field alias in fingerprint")
	}
}
