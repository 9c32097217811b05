package uarch

import (
	"fmt"
	"sync"
	"testing"

	"intervalsim/internal/overlay"
	"intervalsim/internal/trace"
	"intervalsim/internal/workload"
)

// packedTrace generates insts instructions of a suite benchmark and packs
// them into the struct-of-arrays layout.
func packedTrace(t *testing.T, bench string, insts int) *trace.SoA {
	t.Helper()
	wc, ok := workload.SuiteConfig(bench)
	if !ok {
		t.Fatalf("unknown benchmark %s", bench)
	}
	tr, err := trace.ReadAll(workload.MustNew(wc, insts))
	if err != nil {
		t.Fatal(err)
	}
	return trace.Pack(tr)
}

// mixedConfigs builds k distinct configurations spanning the axes a sweep
// varies: window size, frontend depth, and machine width. All share the
// baseline predictor and memory hierarchy, so one overlay applies to all.
func mixedConfigs(k int) []Config {
	depths := []int{3, 5, 7, 9, 11, 4, 6, 8}
	robs := []int{48, 64, 96, 128, 160, 192, 224, 256}
	widths := []int{2, 4, 4, 8, 2, 4, 8, 4}
	cfgs := make([]Config, k)
	for i := range cfgs {
		c := Baseline()
		c.Name = fmt.Sprintf("mixed-%d", i)
		c.FrontendDepth = depths[i%len(depths)]
		c.ROBSize = robs[i%len(robs)]
		c.IQSize = c.ROBSize / 2
		w := widths[i%len(widths)]
		c.FetchWidth, c.DispatchWidth, c.IssueWidth, c.CommitWidth = w, w, w, w
		cfgs[i] = c
	}
	return cfgs
}

// TestConcurrentRunsShareOverlay runs many configurations at once over one
// packed trace and one overlay, the way the service serves a sweep. Under
// -race this pins the SoA and the overlay as read-only during simulation;
// every concurrent run must still match its serial run. (The single flight
// that hands every caller one overlay is tested with the trace cache, in
// package experiments.)
func TestConcurrentRunsShareOverlay(t *testing.T) {
	soa := packedTrace(t, "vpr", 30_000)
	base := Baseline()
	cfgs := mixedConfigs(8)
	ov, err := overlay.Compute(soa, base.Pred, base.Mem)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{RecordMispredicts: true, RecordLoadLevels: true, Overlay: ov}

	results := make([]*Result, len(cfgs))
	errs := make([]error, len(cfgs))
	var wg sync.WaitGroup
	for i, cfg := range cfgs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = Run(soa.Reader(), cfg, opts)
		}()
	}
	wg.Wait()

	for i, cfg := range cfgs {
		if errs[i] != nil {
			t.Fatalf("%s: %v", cfg.Name, errs[i])
		}
		if results[i].Path != "soa+overlay" {
			t.Errorf("%s: path %q (fallback %q), want soa+overlay", cfg.Name, results[i].Path, results[i].Fallback)
		}
		serial, err := Run(soa.Reader(), cfg, opts)
		if err != nil {
			t.Fatal(err)
		}
		compareResults(t, serial, results[i])
	}
}
