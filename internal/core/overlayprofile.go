package core

import (
	"fmt"
	"slices"

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

// walkOverlay builds the functional profile of the first maxInsts records of
// soa (0 = all) from a precomputed miss-event overlay computed over soa, with
// an unbounded reorder window. The overlay already fixes every speculation
// outcome, so the walk only reconstructs the register dataflow taint that
// marks serialized long misses and the warmup/maxInsts windowing. The first
// warmup instructions are excluded from every count and from the event
// stream, mirroring uarch.Options.WarmupInsts so model predictions and
// detailed measurements cover the same steady-state region.
//
// With no window bound, every long miss whose address register is tainted by
// an earlier long miss is Serial, with that miss as its Parent however far
// back it lies; forROB then narrows the profile to one ROB size. One walk
// therefore serves every timing point of a sweep, with no predictor or cache
// simulation per point.
func walkOverlay(soa *trace.SoA, ov *overlay.Overlay, warmup, maxInsts uint64) (*Profile, error) {
	n := uint64(soa.Len())
	if maxInsts > 0 && maxInsts < n {
		n = maxInsts
	}
	p := &Profile{Warmup: warmup}
	// Dataflow taint: per register, the trace index of the most recent long
	// D-miss in its producing chain (-1 if none). A long-missing load whose
	// address register is tainted is serialized behind that miss (pointer
	// chasing) if it is still in the window.
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
				if counting {
					p.LongDMisses++
					ev := uarch.MissEvent{Kind: uarch.EvLongDMiss, Index: idx, Level: lvl}
					if addrTaint >= 0 {
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

// forROB narrows a profile walked with an unbounded window to a machine with
// rob reorder-buffer entries: a long miss stays serialized only behind a
// parent fewer than rob instructions back, still inside one reorder window.
// That test is the only part of the walk that depends on the ROB size — the
// taint follows dataflow, and the counts and events follow the overlay — so
// the result equals a walk with that window, at O(events) cost. The events
// are shared with p unless some serial mark is cleared.
func (p *Profile) forROB(rob int) *Profile {
	q := *p
	q.LongSerial = 0
	cloned := false
	for i, ev := range p.Events {
		if !ev.Serial {
			continue
		}
		if ev.Index-ev.Parent < uint64(rob) {
			q.LongSerial++
			continue
		}
		if !cloned {
			q.Events, cloned = slices.Clone(p.Events), true
		}
		q.Events[i].Serial, q.Events[i].Parent = false, 0
	}
	return &q
}
