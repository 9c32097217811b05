package core

import (
	"io"

	"intervalsim/internal/cache"
	"intervalsim/internal/isa"
	"intervalsim/internal/overlay"
	"intervalsim/internal/trace"
	"intervalsim/internal/uarch"
	"intervalsim/internal/vpred"
)

// This file keeps the live functional simulation of the predictor and the
// caches as the oracle the production profile, overlayProfile, is checked
// against: it rebuilds every speculation outcome from a trace.Reader instead
// of reading it off an overlay.

// FunctionalProfile runs the predictor-and-caches functional simulation of
// the stream from r on the machine cfg, up to maxInsts instructions (0 =
// all). The first warmup instructions train the predictor and caches but are
// excluded from every count and from the event stream, mirroring
// uarch.Options.WarmupInsts so model predictions and detailed measurements
// cover the same steady-state region.
func FunctionalProfile(r trace.Reader, cfg uarch.Config, warmup, maxInsts uint64) (*Profile, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	pred, err := cfg.Pred.Build()
	if err != nil {
		return nil, err
	}
	mem := cache.NewHierarchy(cfg.Mem)
	var vrun *vpred.Runner
	if cfg.VPred != nil {
		if vrun, err = vpred.NewRunner(*cfg.VPred); err != nil {
			return nil, err
		}
	}
	lineMask := ^uint64(mem.LineSizeI() - 1)
	p := &Profile{Warmup: warmup}
	var curLine uint64
	haveLine := false
	// Dataflow taint: for each register, the trace index of the most recent
	// long D-miss in its producing chain (-1 if none). A long-missing load
	// whose address register is tainted by a miss still inside one reorder
	// window is serialized behind it (pointer chasing).
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
	for maxInsts == 0 || p.Insts < maxInsts {
		in, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		idx := p.Insts
		p.Insts++
		counting := idx >= warmup

		if line := in.PC & lineMask; !haveLine || line != curLine {
			curLine = line
			haveLine = true
			if lvl, _ := mem.Fetch(in.PC); lvl != cache.L1Hit && counting {
				p.ICacheMisses++
				p.Events = append(p.Events, uarch.MissEvent{
					Kind: uarch.EvICacheMiss, Index: idx, Level: lvl,
				})
			}
		}

		// Value prediction runs at fetch, before the instruction's own data
		// access — the same program-order point as the cycle-level simulator
		// and the overlay pre-pass, so all three agree on predictor state.
		if vrun != nil && overlay.VPredEligible(in.Class, in.Dst) {
			switch vrun.Access(in.PC) {
			case vpred.Hit:
				if counting {
					p.ValuePredHits++
				}
			case vpred.Miss:
				if counting {
					p.ValueMisspecs++
					p.Events = append(p.Events, uarch.MissEvent{
						Kind: uarch.EvValueMisspec, Index: idx,
					})
				}
			}
		}

		switch {
		case in.Class == isa.Load:
			lvl, _ := mem.Data(in.Addr)
			addrTaint := taintOf(in.Src1)
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
			if in.Dst != isa.NoReg {
				taint[in.Dst] = dstTaint
			}
		case in.Class == isa.Store:
			mem.Data(in.Addr)
		case in.Class.IsControl():
			mispredicted := pred.Access(&in)
			if !counting {
				break
			}
			if in.Class == isa.Branch {
				p.Branches++
			} else {
				p.Jumps++
			}
			if in.Taken {
				p.TakenXfers++
			}
			if mispredicted {
				p.Mispredicts++
				p.Events = append(p.Events, uarch.MissEvent{
					Kind: uarch.EvBranchMispredict, Index: idx,
				})
			}
		default:
			if in.Dst != isa.NoReg {
				t := taintOf(in.Src1)
				if t2 := taintOf(in.Src2); t2 > t {
					t = t2
				}
				taint[in.Dst] = t
			}
		}
	}
	return p, nil
}
