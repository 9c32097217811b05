package experiments

import (
	"testing"

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
// once the cache holds it, returns the cached packed trace, and counts no
// lookup.
func TestTraceCacheResident(t *testing.T) {
	c := NewTraceCache(2)
	wc, _ := workload.SuiteConfig("gzip")
	const insts = 3_000
	fp := TraceFingerprint(wc, insts)
	if _, ok := c.Resident(fp); ok {
		t.Fatal("Resident found a trace the cache never built")
	}
	_, soa, got, err := c.SharedVia(wc, insts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got != fp {
		t.Fatalf("SharedVia named the trace %s, want %s", got, fp)
	}
	before := c.Counters()
	if r, ok := c.Resident(fp); !ok || r != soa {
		t.Fatalf("Resident(%s) = (%p, %v), want the cached trace %p", fp, r, ok, soa)
	}
	if after := c.Counters(); after != before {
		t.Errorf("Resident moved the counters: %+v → %+v", before, after)
	}
}
