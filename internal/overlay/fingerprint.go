package overlay

import (
	"intervalsim/internal/bpred"
	icache "intervalsim/internal/cache"
	"intervalsim/internal/vpred"
)

// SpecFingerprint canonically names one speculation configuration: the
// combination of branch-predictor and cache-hierarchy geometry that fully
// determines an overlay's per-instruction outcomes. It mixes the two
// config fingerprints (which already exclude timing-only knobs such as
// latencies) so callers that key on "what speculation behavior will this
// machine exhibit" — a cached trace's overlays, the durable result store's
// identity keys — share one canonical value.
func SpecFingerprint(pred bpred.Config, mem icache.HierarchyConfig) uint64 {
	h := pred.Fingerprint()
	// Boost-style mix: order-sensitive, avalanches both inputs.
	h ^= mem.Fingerprint() + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
	return h
}

// SpecFingerprintV extends SpecFingerprint with an optional value-predictor
// configuration. A nil vp returns exactly the legacy SpecFingerprint value,
// so every pre-value-prediction cache key, store key, and peer-fill name is
// untouched; a non-nil vp mixes its fingerprint in the same boost style.
func SpecFingerprintV(pred bpred.Config, mem icache.HierarchyConfig, vp *vpred.Config) uint64 {
	h := SpecFingerprint(pred, mem)
	if vp != nil {
		h ^= vp.Fingerprint() + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
	}
	return h
}

// VPredFingerprint names a value-predictor configuration the way an overlay
// records it in VPredFP: 0 for the classic machine without one (a nil vp),
// the configuration's fingerprint otherwise.
func VPredFingerprint(vp *vpred.Config) uint64 {
	if vp == nil {
		return 0
	}
	return vp.Fingerprint()
}
