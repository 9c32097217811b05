package overlay

import (
	"fmt"

	"intervalsim/internal/bpred"
	"intervalsim/internal/cache"
	"intervalsim/internal/isa"
	"intervalsim/internal/vpred"
)

// Check verifies that o has the shape ComputeSpec gives an overlay of its
// trace under the speculation configuration (pred, mem, vp): the
// fingerprints are the configuration's, and every code byte carries only the
// outcomes its record can have —
//
//   - a D class on exactly the loads and stores;
//   - misprediction bits only on control records, and never both;
//   - value-prediction bits only when VPredFP != 0, only on VPredEligible
//     records, and never both;
//   - an I class at exactly the records that cross into a new L1I line of
//     mem (the first record included).
//
// It is the validation of an overlay that came from outside the process,
// such as a peer fill, whose checksum proves only that the bytes arrived as
// they were sent. Which outcome a record had (which branch mispredicted,
// which access missed) cannot be checked without recomputing the overlay.
func (o *Overlay) Check(pred bpred.Config, mem cache.HierarchyConfig, vp *vpred.Config) error {
	if o.PredFP != pred.Fingerprint() || o.MemFP != mem.Fingerprint() || o.VPredFP != VPredFingerprint(vp) {
		return fmt.Errorf("overlay: fingerprints do not match the configuration")
	}
	soa := o.Trace
	if soa == nil || soa.Len() != len(o.Code) {
		return fmt.Errorf("overlay: %d code bytes do not annotate the trace", len(o.Code))
	}
	lineMask := ^uint64(mem.L1I.LineSize - 1)
	for i, code := range o.Code {
		class := soa.Class(i)
		if d := code & DMask; (d != 0) != (class == isa.Load || class == isa.Store) {
			return fmt.Errorf("overlay: record %d (%v) has D class %d", i, class, d)
		}
		if m := code & AnyMiss; m != 0 && (!class.IsControl() || m == AnyMiss) {
			return fmt.Errorf("overlay: record %d (%v) has misprediction bits %#x", i, class, m)
		}
		if v := code & (VPredHit | VPredMiss); v != 0 &&
			(o.VPredFP == 0 || !VPredEligible(class, soa.Dst[i]) || v == VPredHit|VPredMiss) {
			return fmt.Errorf("overlay: record %d (%v) has value-prediction bits %#x", i, class, v)
		}
		crossing := i == 0 || soa.PC[i]&lineMask != soa.PC[i-1]&lineMask
		if ic := code & IMask; (ic != 0) != crossing {
			return fmt.Errorf("overlay: record %d has I class %d, line crossing %v", i, ic>>IShift, crossing)
		}
	}
	return nil
}
