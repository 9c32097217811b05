package core

import (
	"fmt"
	"reflect"
	"testing"

	"intervalsim/internal/cache"
	"intervalsim/internal/isa"
	"intervalsim/internal/overlay"
	"intervalsim/internal/trace"
	"intervalsim/internal/uarch"
	"intervalsim/internal/workload"
)

// overlayProfile is the per-ROB walk the model set's one walk plus forROB
// must equal: it builds the functional profile of the first maxInsts
// records of soa (0 = all) on the machine cfg from a precomputed miss-event
// overlay. The overlay already fixes every speculation outcome, so the walk
// only reconstructs what depends on the machine configuration beyond the
// speculation structures: the register dataflow taint that marks serialized
// long misses (a function of ROBSize) and the warmup/maxInsts windowing. The
// first warmup instructions are excluded from every count and from the
// event stream, mirroring uarch.Options.WarmupInsts so model predictions and
// detailed measurements cover the same steady-state region. One overlay
// therefore serves every timing point of a sweep, with no predictor or
// cache simulation per point.
//
// The overlay must have been computed over exactly soa under cfg's
// predictor, cache-geometry and value-predictor fingerprints; anything else
// is an error (unlike the silent fallback of the cycle-level replay mode,
// callers here chose the overlay deliberately).
func overlayProfile(soa *trace.SoA, ov *overlay.Overlay, cfg uarch.Config, warmup, maxInsts uint64) (*Profile, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if ov.Trace != soa {
		return nil, fmt.Errorf("core: overlay was computed for a different trace")
	}
	if ov.PredFP != cfg.Pred.Fingerprint() || ov.MemFP != cfg.Mem.Fingerprint() {
		return nil, fmt.Errorf("core: overlay fingerprints do not match the configuration")
	}
	if ov.VPredFP != overlay.VPredFingerprint(cfg.VPred) {
		return nil, fmt.Errorf("core: overlay value-predictor fingerprint does not match the configuration")
	}
	n := uint64(soa.Len())
	if maxInsts > 0 && maxInsts < n {
		n = maxInsts
	}
	p := &Profile{Warmup: warmup}
	// Dataflow taint: per register, the trace index of the most recent long
	// D-miss in its producing chain (-1 if none). A long-missing load whose
	// address register is tainted by a miss still inside one reorder window
	// is serialized behind it (pointer chasing).
	var taint [isa.NumRegs]int64
	for i := range taint {
		taint[i] = -1
	}
	taintOf := func(r int8) int64 {
		if r == isa.NoReg {
			return -1
		}
		return taint[r]
	}
	for idx := uint64(0); idx < n; idx++ {
		i := int(idx)
		p.Insts++
		counting := idx >= warmup

		code := ov.Code[i]
		if ic := (code & overlay.IMask) >> overlay.IShift; ic != 0 {
			if lvl := cache.Level(ic - 1); lvl != cache.L1Hit && counting {
				p.ICacheMisses++
				p.Events = append(p.Events, uarch.MissEvent{
					Kind: uarch.EvICacheMiss, Index: idx, Level: lvl,
				})
			}
		}

		// Value-speculation bits: value prediction runs at fetch, so its
		// event follows the I-cache event and precedes the data/control
		// event, the program-order point of the cycle-level simulator. The
		// pre-pass only sets these bits on eligible instructions, so no
		// eligibility re-check is needed.
		if ov.VPredFP != 0 {
			switch {
			case code&overlay.VPredHit != 0:
				if counting {
					p.ValuePredHits++
				}
			case code&overlay.VPredMiss != 0:
				if counting {
					p.ValueMisspecs++
					p.Events = append(p.Events, uarch.MissEvent{
						Kind: uarch.EvValueMisspec, Index: idx,
					})
				}
			}
		}

		meta := soa.Meta[i]
		class := isa.Class(meta & trace.MetaClassMask)
		switch {
		case class == isa.Load:
			dc := code & overlay.DMask
			if dc == 0 {
				return nil, fmt.Errorf("core: overlay has no D class for the load at index %d", idx)
			}
			lvl := cache.Level(dc - 1)
			addrTaint := taintOf(soa.Src1[i])
			var dstTaint int64 = -1
			if counting {
				p.Loads++
			}
			switch lvl {
			case cache.ShortMiss:
				if counting {
					p.ShortDMisses++
				}
			case cache.LongMiss:
				serial := addrTaint >= 0 && idx-uint64(addrTaint) < uint64(cfg.ROBSize)
				if counting {
					p.LongDMisses++
					ev := uarch.MissEvent{Kind: uarch.EvLongDMiss, Index: idx, Level: lvl}
					if serial {
						p.LongSerial++
						ev.Serial = true
						ev.Parent = uint64(addrTaint)
					}
					p.Events = append(p.Events, ev)
				}
				dstTaint = int64(idx)
			}
			if d := soa.Dst[i]; d != isa.NoReg {
				taint[d] = dstTaint
			}
		case class == isa.Store:
			// The store's data access is already baked into the overlay and
			// contributes nothing to any profile count.
		case class.IsControl():
			if !counting {
				break
			}
			if class == isa.Branch {
				p.Branches++
			} else {
				p.Jumps++
			}
			if meta&trace.MetaTakenBit != 0 {
				p.TakenXfers++
			}
			if code&overlay.AnyMiss != 0 {
				p.Mispredicts++
				p.Events = append(p.Events, uarch.MissEvent{
					Kind: uarch.EvBranchMispredict, Index: idx,
				})
			}
		default:
			if d := soa.Dst[i]; d != isa.NoReg {
				t := taintOf(soa.Src1[i])
				if t2 := taintOf(soa.Src2[i]); t2 > t {
					t = t2
				}
				taint[d] = t
			}
		}
	}
	return p, nil
}

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
