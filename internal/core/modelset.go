package core

import (
	"fmt"
	"sync"

	"intervalsim/internal/ilp"
	"intervalsim/internal/overlay"
	"intervalsim/internal/trace"
	"intervalsim/internal/uarch"
)

// ModelSet amortizes the expensive inputs of the analytic interval model
// across a family of configurations that share a trace, a speculation
// configuration (predictor + cache geometry), and all latencies — a timing
// sweep over dispatch width, frontend depth, and ROB size. BuildModel runs
// the ILP profiling kernels for one configuration; a ModelSet runs the fused
// unit- and machine-latency pass once, the branch-resolution pass once per
// distinct dispatch width, and the functional miss-event profile once per
// distinct ROB size, all straight off a precomputed overlay with no
// predictor or cache simulation at all. A set is safe for concurrent use, so
// one set can serve every worker that asks for a member of its family.
//
// The sharing is sound because every characteristic is profiled over the
// window ladder of maxROB and only ever evaluated at or below a requested
// ROB size: For rejects a ROB size that is not an exact ladder node (a power
// of two up to maxROB, or maxROB itself), so interpolation between nodes
// never crosses a node the smaller ladder would have had. Predictions match
// a dedicated BuildModel exactly for every occupancy at or above the
// smallest ladder window (2); below it EvalInterp falls back to the fitted
// power law, whose coefficients see the extra high-window points — a
// sub-cycle difference worth <0.1% of CPI (TestModelSetMatchesBuildModel).
type ModelSet struct {
	soa      *trace.SoA
	ov       *overlay.Overlay
	base     uarch.Config
	maxROB   int
	warmup   uint64
	maxInsts int

	mu         sync.Mutex
	shared     bool // kunit/klat/shortRatio computed
	kunit      ilp.Characteristic
	klat       ilp.Characteristic
	shortRatio float64
	kres       map[int]ilp.Characteristic // by dispatch width
	prof       map[int]*Profile           // by ROB size
}

// NewModelSet prepares a model family over soa + ov. base fixes everything
// the family must share: the speculation configuration and the latencies.
// maxROB is the largest ROB size any For call will request; warmup and
// maxInsts bound the profiled region exactly as in OverlayProfile and
// BuildModel.
func NewModelSet(soa *trace.SoA, ov *overlay.Overlay, base uarch.Config, maxROB int, warmup uint64, maxInsts int) (*ModelSet, error) {
	if err := base.Validate(); err != nil {
		return nil, err
	}
	if maxROB < 2 {
		return nil, fmt.Errorf("%w: ModelSet maxROB %d", ErrBadInput, maxROB)
	}
	if ov.Trace != soa {
		return nil, fmt.Errorf("%w: overlay was computed for a different trace", ErrBadInput)
	}
	if ov.PredFP != base.Pred.Fingerprint() || ov.MemFP != base.Mem.Fingerprint() ||
		ov.VPredFP != vpredConfigFP(base.VPred) {
		return nil, fmt.Errorf("%w: overlay fingerprints do not match the base configuration", ErrBadInput)
	}
	return &ModelSet{
		soa: soa, ov: ov, base: base, maxROB: maxROB,
		warmup: warmup, maxInsts: maxInsts,
		kres: make(map[int]ilp.Characteristic),
		prof: make(map[int]*Profile),
	}, nil
}

// For composes the analytic model and the functional profile for one member
// of the family, reusing every shared characteristic. It rejects — rather
// than silently mis-shares — a configuration whose speculation state,
// latencies, or ROB size fall outside the family contract. Safe for
// concurrent use.
func (s *ModelSet) For(cfg uarch.Config) (*Model, *Profile, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	if cfg.Pred.Fingerprint() != s.ov.PredFP || cfg.Mem.Fingerprint() != s.ov.MemFP ||
		vpredConfigFP(cfg.VPred) != s.ov.VPredFP {
		return nil, nil, fmt.Errorf("%w: configuration's speculation state differs from the overlay's", ErrBadInput)
	}
	if cfg.Mem.Lat != s.base.Mem.Lat || cfg.FU.Latencies() != s.base.FU.Latencies() {
		return nil, nil, fmt.Errorf("%w: configuration's latencies differ from the model set's", ErrBadInput)
	}
	if !ladderNode(cfg.ROBSize, s.maxROB) {
		return nil, nil, fmt.Errorf("%w: ROB size %d is not a window-ladder node of maxROB %d", ErrBadInput, cfg.ROBSize, s.maxROB)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	prof, ok := s.prof[cfg.ROBSize]
	if !ok {
		var err error
		prof, err = OverlayProfile(s.soa, s.ov, cfg, s.warmup, uint64(s.maxInsts))
		if err != nil {
			return nil, nil, err
		}
		s.prof[cfg.ROBSize] = prof
	}
	windows := windowLadder(s.maxROB)
	if !s.shared {
		// The short-miss ratio counts L1-hit vs L2-hit loads: a property of
		// the overlay, identical for every ROB size in the family.
		s.shortRatio = prof.ShortMissRatio()
		ks, err := ilp.Profile(s.soa, windows, []ilp.Latencies{ilp.UnitLatencies(), MachineLatency(s.base, s.shortRatio)}, s.maxInsts)
		if err != nil {
			return nil, nil, err
		}
		s.kunit, s.klat, s.shared = ks[0], ks[1], true
	}
	kres, ok := s.kres[cfg.DispatchWidth]
	if !ok {
		var err error
		kres, err = ilp.ProfileResolution(s.soa, windows, MachineLatency(s.base, s.shortRatio), cfg.DispatchWidth, s.maxInsts, resolutionSample)
		if err != nil {
			return nil, nil, err
		}
		s.kres[cfg.DispatchWidth] = kres
	}
	return &Model{Cfg: cfg, KUnit: s.kunit, KLat: s.klat, KRes: kres}, prof, nil
}

// ladderNode reports whether rob is an exact node of windowLadder(maxROB).
func ladderNode(rob, maxROB int) bool {
	if rob == maxROB {
		return true
	}
	if rob < 2 || rob > maxROB {
		return false
	}
	return rob&(rob-1) == 0
}
