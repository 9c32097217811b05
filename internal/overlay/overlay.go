// Package overlay precomputes speculation outcomes once per (trace,
// predictor config, cache geometry) and shares them across every timing
// configuration of a sweep.
//
// Interval analysis rests on a separation the detailed simulator does not
// exploit on its own: branch prediction outcomes and instruction-cache
// hit/miss classifications are properties of the program and the
// speculation structures, not of the pipeline timing parameters (frontend
// depth, ROB size, widths, FU and memory latencies) that design-space
// sweeps vary. The branch predictor and the L1 instruction cache are
// touched in strict program order by a trace-driven fetch stage, so their
// entire outcome stream can be computed by one fast pre-pass and then
// replayed — exactly — under any timing configuration.
//
// The data side is different, and the package is honest about it: L1D and
// L2 are accessed at issue time, whose order depends on timing, so
// per-access data classifications are NOT timing-invariant (measured: tens
// to hundreds of divergent load classifications per 200K loads between ROB
// sizes). The overlay still records a program-order D-class per memory
// access — that is what the functional profile behind the analytic interval
// model is defined over — but the cycle-level replay mode (uarch.Options.
// Overlay) deliberately keeps L1D/L2 live and replays only the provably
// invariant predictor and L1I outcomes, driving the shared L2 with the
// identical fetch-miss stream so results stay bit-for-bit equal to live
// simulation (gated by TestOverlayReplayMatchesLive).
//
// One byte per instruction, bit-packed:
//
//	bits 0-1  D-access class: 0 none, 1 L1 hit, 2 short miss, 3 long miss
//	          (loads and stores; program-order semantics)
//	bits 2-3  I-fetch class: 0 no access (same line as previous fetch),
//	          1 L1I hit, 2 short miss, 3 long miss
//	bit 4     direction misprediction (conditional branches)
//	bit 5     BTB misprediction (taken branches and jumps)
//	bit 6     value prediction hit (confident correct: dependence broken)
//	bit 7     value misspeculation (confident wrong: pipeline flush)
//
// Bits 6 and 7 are mutually exclusive and only ever set when the overlay
// was computed with a value-predictor configuration (VPredFP != 0); value
// prediction is driven in strict program order at fetch, so its outcomes
// are timing-invariant for the same reason the branch predictor's are.
package overlay

import (
	"fmt"

	"intervalsim/internal/bpred"
	"intervalsim/internal/cache"
	"intervalsim/internal/isa"
	"intervalsim/internal/trace"
	"intervalsim/internal/vpred"
)

// Code-byte layout. The D and I classes store cache.Level+1 so that zero
// means "no access".
const (
	DMask     uint8 = 0b11
	IShift          = 2
	IMask     uint8 = 0b11 << IShift
	DirMiss   uint8 = 1 << 4
	BTBMiss   uint8 = 1 << 5
	AnyMiss         = DirMiss | BTBMiss
	VPredHit  uint8 = 1 << 6
	VPredMiss uint8 = 1 << 7
)

// Overlay is the precomputed per-instruction miss-event stream of one trace
// under one speculation configuration. It is immutable once computed and
// safe to share across goroutines.
type Overlay struct {
	// Trace is the packed trace the overlay was computed over. Consumers
	// match by pointer identity: an overlay is only valid for replay against
	// the exact SoA it was built from.
	Trace *trace.SoA
	// PredFP and MemFP are the canonical fingerprints of the predictor
	// configuration and the cache-hierarchy geometry the outcomes were
	// computed under (bpred.Config.Fingerprint, cache.HierarchyConfig.
	// Fingerprint). A consumer whose configuration hashes differently must
	// fall back to live simulation.
	PredFP uint64
	MemFP  uint64
	// VPredFP is the canonical fingerprint of the value-predictor
	// configuration (vpred.Config.Fingerprint), or 0 when the overlay was
	// computed without value prediction — the pre-value-speculation state,
	// so legacy overlays remain valid for vpred-less consumers.
	VPredFP uint64
	// Code holds one packed outcome byte per trace record (see the package
	// comment for the bit layout).
	Code []uint8
}

// Len returns the number of per-instruction codes.
func (o *Overlay) Len() int { return len(o.Code) }

// DClass returns the D-access class of record i: the cache level that
// served the load or store, and whether the record accessed the data
// hierarchy at all.
func (o *Overlay) DClass(i int) (cache.Level, bool) {
	c := o.Code[i] & DMask
	if c == 0 {
		return 0, false
	}
	return cache.Level(c - 1), true
}

// IClass returns the I-fetch class of record i: the level that served the
// fetch, and whether the record began a new I-cache line at all (false for
// the straight-line instructions after the first of a line).
func (o *Overlay) IClass(i int) (cache.Level, bool) {
	c := (o.Code[i] & IMask) >> IShift
	if c == 0 {
		return 0, false
	}
	return cache.Level(c - 1), true
}

// Mispredicted reports whether the control instruction at record i was
// mispredicted (direction or target).
func (o *Overlay) Mispredicted(i int) bool { return o.Code[i]&AnyMiss != 0 }

// ValuePredHit reports whether record i's result was confidently and
// correctly value-predicted (its register dependence is broken).
func (o *Overlay) ValuePredHit(i int) bool { return o.Code[i]&VPredHit != 0 }

// ValueMisspec reports whether record i was confidently value-mispredicted
// (a misspeculation flush at dispatch).
func (o *Overlay) ValueMisspec(i int) bool { return o.Code[i]&VPredMiss != 0 }

// VPredEligible reports whether an instruction of the given class and
// destination register is value-predicted: loads and register-writing
// integer ALU results, the two streams the potential studies speculate on.
// The overlay pre-pass and the live simulator must agree on this predicate
// exactly, so it lives here and both call it.
func VPredEligible(class isa.Class, dst int8) bool {
	return class == isa.Load || (class == isa.IntALU && dst != isa.NoReg)
}

// Compute runs the speculation pre-pass: one program-order walk of the
// packed trace through a freshly built prediction unit and cache hierarchy,
// recording every outcome. The access interleaving matches both the
// trace-driven fetch stage (I-side: one hierarchy access per L1I line
// crossing) and the functional miss-event profile of the analytic model (I
// access before the D or predictor access of the same instruction), which
// is what makes the overlay exact for both consumers.
//
// The cost is roughly one functional simulation — paid once per (trace,
// predictor, cache geometry) key and then amortized over every timing
// point that shares it.
func Compute(soa *trace.SoA, pred bpred.Config, mem cache.HierarchyConfig) (*Overlay, error) {
	return ComputeSpec(soa, pred, mem, nil)
}

// ComputeSpec is Compute with an optional value-predictor configuration:
// when vp is non-nil, a vpred.Runner walks the same program-order pass and
// bits 6/7 record each eligible instruction's speculation outcome. A nil vp
// is the legacy pre-pass, byte-identical to what Compute always produced.
func ComputeSpec(soa *trace.SoA, pred bpred.Config, mem cache.HierarchyConfig, vp *vpred.Config) (*Overlay, error) {
	unit, err := pred.Build()
	if err != nil {
		return nil, err
	}
	if err := mem.Validate(); err != nil {
		return nil, err
	}
	var vrun *vpred.Runner
	if vp != nil {
		if vrun, err = vpred.NewRunner(*vp); err != nil {
			return nil, err
		}
	}
	h := cache.NewHierarchy(mem)
	lineMask := ^uint64(h.LineSizeI() - 1)

	n := soa.Len()
	ov := &Overlay{
		Trace:   soa,
		PredFP:  pred.Fingerprint(),
		MemFP:   mem.Fingerprint(),
		VPredFP: VPredFingerprint(vp),
		Code:    make([]uint8, n),
	}
	var curLine uint64
	haveLine := false
	var in isa.Inst
	for i := 0; i < n; i++ {
		var code uint8
		pc := soa.PC[i]
		if line := pc & lineMask; !haveLine || line != curLine {
			curLine, haveLine = line, true
			lvl, _ := h.Fetch(pc)
			code |= (uint8(lvl) + 1) << IShift
		}
		meta := soa.Meta[i]
		class := isa.Class(meta & trace.MetaClassMask)
		if vrun != nil && VPredEligible(class, soa.Dst[i]) {
			switch vrun.Access(pc) {
			case vpred.Hit:
				code |= VPredHit
			case vpred.Miss:
				code |= VPredMiss
			}
		}
		switch {
		case class == isa.Load || class == isa.Store:
			lvl, _ := h.Data(soa.Addr[i])
			code |= uint8(lvl) + 1
		case class.IsControl():
			// Unit.Access reads only PC, Target, Taken, and Class; fill just
			// those instead of materializing the full record.
			in.PC = pc
			in.Target = soa.Target[i]
			in.Taken = meta&trace.MetaTakenBit != 0
			in.Class = class
			dir0, btb0 := unit.Stats.DirMispredict, unit.Stats.BTBMispredict
			if unit.Access(&in) {
				// Attribute the redirect from the stat that moved; Unit
				// counts exactly one per mispredict.
				if unit.Stats.DirMispredict != dir0 {
					code |= DirMiss
				} else if unit.Stats.BTBMispredict != btb0 {
					code |= BTBMiss
				} else {
					return nil, fmt.Errorf("overlay: predictor mispredicted without counting (record %d)", i)
				}
			}
		}
		ov.Code[i] = code
	}
	return ov, nil
}
