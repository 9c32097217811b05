package core

import (
	"reflect"
	"testing"

	"intervalsim/internal/overlay"
	"intervalsim/internal/trace"
	"intervalsim/internal/uarch"
	"intervalsim/internal/workload"
)

// TestOverlayProfileMatchesFunctional is the profile-side equivalence gate:
// a profile reconstructed from the overlay must equal — DeepEqual, events
// and all — the one FunctionalProfile computes live, across workloads,
// window sizes (which move the serialized-miss marking), and warmup and
// instruction-limit windows. One overlay per workload serves every
// configuration, which is the sharing the model sweeps rely on.
func TestOverlayProfileMatchesFunctional(t *testing.T) {
	base := uarch.Baseline()
	smallrob := uarch.Baseline()
	smallrob.Name, smallrob.ROBSize, smallrob.IQSize = "smallrob", 32, 16
	bigrob := uarch.Baseline()
	bigrob.Name, bigrob.ROBSize, bigrob.IQSize = "bigrob", 512, 256
	cfgs := []uarch.Config{base, smallrob, bigrob}

	windows := []struct {
		name             string
		warmup, maxInsts uint64
	}{
		{"full", 0, 0},
		{"warmup", 10_000, 0},
		{"limited", 5_000, 33_000},
	}

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
		for _, cfg := range cfgs {
			ov, err := overlay.Compute(soa, cfg.Pred, cfg.Mem)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range windows {
				t.Run(wname+"/"+cfg.Name+"/"+w.name, func(t *testing.T) {
					live, err := FunctionalProfile(tr.Reader(), cfg, w.warmup, w.maxInsts)
					if err != nil {
						t.Fatal(err)
					}
					fromOv, err := overlayProfile(soa, ov, cfg, w.warmup, w.maxInsts)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(live, fromOv) {
						t.Errorf("profiles differ:\nlive:    %+v\noverlay: %+v", live, fromOv)
					}
				})
			}
		}
	}
}

// TestOverlayProfileRejectsMismatch pins the validation: profiles are never
// silently built from an overlay that does not describe the requested
// configuration or trace.
func TestOverlayProfileRejectsMismatch(t *testing.T) {
	cfg := uarch.Baseline()
	wc, _ := workload.SuiteConfig("gzip")
	tr, err := trace.ReadAll(workload.MustNew(wc, 5_000))
	if err != nil {
		t.Fatal(err)
	}
	soa := trace.Pack(tr)
	ov, err := overlay.Compute(soa, cfg.Pred, cfg.Mem)
	if err != nil {
		t.Fatal(err)
	}
	other := trace.Pack(tr)
	if _, err := overlayProfile(other, ov, cfg, 0, 0); err == nil {
		t.Error("different trace accepted")
	}
	changed := cfg
	changed.Pred.Entries = 2 * cfg.Pred.Entries
	if _, err := overlayProfile(soa, ov, changed, 0, 0); err == nil {
		t.Error("mismatched predictor fingerprint accepted")
	}
	latOnly := cfg
	latOnly.Mem.Lat.Mem = 999
	if _, err := overlayProfile(soa, ov, latOnly, 0, 0); err != nil {
		t.Errorf("latency-only change rejected: %v", err)
	}
}
