package core

import (
	"fmt"

	"intervalsim/internal/cache"
	"intervalsim/internal/isa"
	"intervalsim/internal/overlay"
	"intervalsim/internal/trace"
	"intervalsim/internal/uarch"
)

// Profile is the functional miss-event profile of a program on a machine:
// the miss-event stream and rates interval analysis needs, in program order,
// with no timing and no window. This is the input side of the paper's
// analytic model: penalties are then *predicted* from these events rather
// than measured.
type Profile struct {
	Insts  uint64 // instructions processed, including warmup
	Warmup uint64 // leading instructions excluded from counts and events
	Events []uarch.MissEvent

	Branches     uint64
	Jumps        uint64
	TakenXfers   uint64 // taken branches + jumps: fetch-group breaks
	Mispredicts  uint64
	ICacheMisses uint64
	Loads        uint64
	ShortDMisses uint64
	LongDMisses  uint64
	LongSerial   uint64 // long misses address-dependent on a prior in-window long miss

	ValuePredHits uint64 // confident-correct value predictions (dependence broken)
	ValueMisspecs uint64 // confident-wrong value predictions (pipeline flush)
}

// ShortMissRatio returns the fraction of loads served by the L2.
func (p *Profile) ShortMissRatio() float64 {
	if p.Loads == 0 {
		return 0
	}
	return float64(p.ShortDMisses) / float64(p.Loads)
}

// overlayProfile builds the functional profile of the first maxInsts
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
