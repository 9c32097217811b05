package uarch

import (
	"strings"
	"testing"

	"intervalsim/internal/overlay"
	"intervalsim/internal/trace"
	"intervalsim/internal/workload"
)

// replayOptions are the instrumentation matrices overlay replay supports:
// everything in diffOptions except sampling and wrong-path fetch, which
// newSimulator deliberately falls back to live simulation for.
func replayOptions() map[string]Options {
	m := map[string]Options{}
	for name, opts := range diffOptions() {
		if opts.fastForwarded() || opts.WrongPathFetch {
			continue
		}
		m[name] = opts
	}
	return m
}

// TestOverlayReplayMatchesLive is the contract behind overlay replay: a
// run that replays precomputed branch-prediction and L1I outcomes must be
// bit-identical to a live run — every counter, stall bucket, event, record,
// timeline entry, and load level — across timing configurations that vary
// frontend depth and window size. One overlay (per workload) serves every
// configuration here, which is the point: the timing parameters the sweep
// varies may not change speculation outcomes.
func TestOverlayReplayMatchesLive(t *testing.T) {
	base := Baseline()
	shallow := Baseline()
	shallow.Name, shallow.FrontendDepth = "shallow", 3
	deep := Baseline()
	deep.Name, deep.FrontendDepth = "deep", 15
	smallrob := Baseline()
	smallrob.Name, smallrob.ROBSize, smallrob.IQSize = "smallrob", 48, 24
	bigrob := Baseline()
	bigrob.Name, bigrob.ROBSize, bigrob.IQSize = "bigrob", 256, 128
	cfgs := []Config{base, shallow, deep, smallrob, bigrob}

	// All five configs share one predictor and cache geometry, so one
	// overlay per workload serves all of them: a config it did not apply to
	// would fall back to live simulation, which the path check rejects.
	for _, wname := range []string{"gzip", "mcf", "crafty", "twolf"} {
		wc, ok := workload.SuiteConfig(wname)
		if !ok {
			t.Fatalf("unknown workload %s", wname)
		}
		tr, err := trace.ReadAll(workload.MustNew(wc, 40_000))
		if err != nil {
			t.Fatal(err)
		}
		soa := trace.Pack(tr)
		ov, err := overlay.Compute(soa, base.Pred, base.Mem)
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range cfgs {
			for oname, opts := range replayOptions() {
				t.Run(wname+"/"+cfg.Name+"/"+oname, func(t *testing.T) {
					live, err := Run(soa.Reader(), cfg, opts)
					if err != nil {
						t.Fatal(err)
					}
					opts.Overlay = ov
					replay, err := Run(soa.Reader(), cfg, opts)
					if err != nil {
						t.Fatal(err)
					}
					if replay.Path != "soa+overlay" {
						t.Fatalf("replay run took path %q (fallback: %q)", replay.Path, replay.Fallback)
					}
					compareResults(t, live, replay)
				})
			}
		}
	}
}

// TestOverlayFallback pins the rejection rules: an overlay that does not
// provably apply is ignored, the run falls back to live simulation with
// identical results, and the Result says why.
func TestOverlayFallback(t *testing.T) {
	cfg := Baseline()
	wc, _ := workload.SuiteConfig("gzip")
	tr, err := trace.ReadAll(workload.MustNew(wc, 20_000))
	if err != nil {
		t.Fatal(err)
	}
	soa := trace.Pack(tr)
	ov, err := overlay.Compute(soa, cfg.Pred, cfg.Mem)
	if err != nil {
		t.Fatal(err)
	}

	check := func(name string, r trace.Reader, cfg Config, opts Options, wantReason string) {
		t.Helper()
		got, err := Run(r, cfg, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.Path == "soa+overlay" {
			t.Fatalf("%s: overlay was not rejected", name)
		}
		if !strings.Contains(got.Fallback, wantReason) {
			t.Errorf("%s: Fallback = %q, want mention of %q", name, got.Fallback, wantReason)
		}
	}

	opts := Options{Overlay: ov}
	// Run packs any other reader into a trace of its own, which the overlay
	// was not computed for.
	check("plain reader", tr.Reader(), cfg, opts, "different trace")

	sampled := opts
	sampled.SampleDetailed, sampled.SampleSkip = 2_000, 3_000
	check("sampled", soa.Reader(), cfg, sampled, "sampled")

	wrong := opts
	wrong.WrongPathFetch = true
	check("wrong-path fetch", soa.Reader(), cfg, wrong, "wrong-path")

	other := trace.Pack(tr)
	otherOv, err := overlay.Compute(other, cfg.Pred, cfg.Mem)
	if err != nil {
		t.Fatal(err)
	}
	check("different trace", soa.Reader(), cfg, Options{Overlay: otherOv}, "different trace")

	mismatch := cfg
	mismatch.Pred.Kind = "bimodal"
	check("fingerprint mismatch", soa.Reader(), mismatch, opts, "fingerprint mismatch")

	// The fallback must not just be recorded — it must also be correct:
	// the run with the rejected overlay equals a plain live run.
	live, err := Run(soa.Reader(), mismatch, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fell, err := Run(soa.Reader(), mismatch, opts)
	if err != nil {
		t.Fatal(err)
	}
	compareResults(t, live, fell)
}
