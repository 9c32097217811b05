package core

import (
	"fmt"
	"slices"
	"sync"

	"intervalsim/internal/ilp"
	"intervalsim/internal/overlay"
	"intervalsim/internal/trace"
	"intervalsim/internal/uarch"
)

// ModelSet builds the analytic interval model for a family of configurations
// that share a trace, a speculation configuration (predictor + cache
// geometry) and all latencies — a timing sweep over dispatch width, frontend
// depth and ROB size — and is the only way to build one. It measures what
// the model reads of the two ILP characteristics: the machine-latency
// critical path of a ROB-sized window once per ROB size, and the
// branch-resolution K(w) once per window size and distinct dispatch width.
// It walks a precomputed overlay once, with no predictor or cache
// simulation at all, for a miss-event profile from which each ROB size's
// profile is derived. A set is safe for concurrent use, so one set can
// serve every worker that asks for a member of its family.
//
// The sharing is exact: the ILP kernels tile each window size on its own,
// so K(w) does not depend on which other sizes were measured with it, and
// For fits every ROB size on its own window ladder from those
// measurements. For therefore returns, bit for bit, the model a set
// dedicated to that one configuration would return, whatever ROB sizes the
// set answered before.
type ModelSet struct {
	soa      *trace.SoA
	ov       *overlay.Overlay
	base     uarch.Config
	maxROB   int
	warmup   uint64
	maxInsts int

	mu         sync.Mutex
	walk       *Profile                // the overlay walked once with an unbounded window
	shortRatio float64                 // the family's short-miss ratio, set with the walk
	krob       map[int]float64         // machine-latency K of a ROB-sized window by ROB size
	kres       map[int]map[int]float64 // resolution K(w) by dispatch width, then window size
	prof       map[int]*Profile        // by ROB size, at most maxProfiles
}

// maxProfiles bounds the miss-event profiles a set keeps, one per ROB size,
// each up to as large as the program's miss-event stream. A set shared by a
// daemon sees whatever ROB sizes clients ask for; past this many, For
// derives the profile of a size it did not keep again instead of keeping
// more.
const maxProfiles = 16

// NewModelSet prepares a model family over soa + ov. base fixes everything
// the family must share: the speculation configuration and the latencies.
// The first For at each dispatch width profiles resolution over the window
// ladder of maxROB up front, so a sweep whose largest ROB is maxROB pays one
// resolution pass per width; other ROB sizes, larger ones included, are
// profiled as they are asked for. warmup and maxInsts bound the profiled
// region: the first warmup instructions are left out of every profile
// count, and at most maxInsts instructions are read (0 = all).
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
		ov.VPredFP != overlay.VPredFingerprint(base.VPred) {
		return nil, fmt.Errorf("%w: overlay fingerprints do not match the base configuration", ErrBadInput)
	}
	return &ModelSet{
		soa: soa, ov: ov, base: base, maxROB: maxROB,
		warmup: warmup, maxInsts: maxInsts,
		krob: make(map[int]float64),
		kres: make(map[int]map[int]float64),
		prof: make(map[int]*Profile),
	}, nil
}

// For composes the analytic model and the miss-event profile for one member
// of the family, profiling only what no earlier call measured. It rejects —
// rather than silently mis-shares — a configuration whose speculation state
// or latencies fall outside the family. Safe for concurrent use.
func (s *ModelSet) For(cfg uarch.Config) (*Model, *Profile, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	if cfg.Pred.Fingerprint() != s.ov.PredFP || cfg.Mem.Fingerprint() != s.ov.MemFP ||
		overlay.VPredFingerprint(cfg.VPred) != s.ov.VPredFP {
		return nil, nil, fmt.Errorf("%w: configuration's speculation state differs from the overlay's", ErrBadInput)
	}
	if cfg.Mem.Lat != s.base.Mem.Lat || cfg.FU.Latencies() != s.base.FU.Latencies() {
		return nil, nil, fmt.Errorf("%w: configuration's latencies differ from the model set's", ErrBadInput)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	prof, ok := s.prof[cfg.ROBSize]
	if !ok {
		if s.walk == nil {
			walk, err := walkOverlay(s.soa, s.ov, s.warmup, uint64(s.maxInsts))
			if err != nil {
				return nil, nil, err
			}
			// The short-miss ratio counts L1-hit vs L2-hit loads: a property
			// of the overlay and the warmup, the same for every ROB size.
			s.walk, s.shortRatio = walk, walk.ShortMissRatio()
		}
		prof = s.walk.forROB(cfg.ROBSize)
		if len(s.prof) < maxProfiles {
			s.prof[cfg.ROBSize] = prof
		}
	}
	ladder := windowLadder(cfg.ROBSize)
	lat := MachineLatency(s.base, s.shortRatio)
	krob, ok := s.krob[cfg.ROBSize]
	if !ok {
		k, err := ilp.Profile(s.soa, []int{cfg.ROBSize}, lat, s.maxInsts)
		if err != nil {
			return nil, nil, err
		}
		krob = k.K[0]
		s.krob[cfg.ROBSize] = krob
	}
	kres, ok := s.kres[cfg.DispatchWidth]
	if !ok {
		kres = make(map[int]float64)
		s.kres[cfg.DispatchWidth] = kres
	}
	if todo := s.unmeasured(kres, ladder); len(todo) > 0 {
		k, err := ilp.ProfileResolution(s.soa, todo, lat, cfg.DispatchWidth, s.maxInsts, resolutionSample)
		if err != nil {
			return nil, nil, err
		}
		for i, w := range todo {
			kres[w] = k.K[i]
		}
	}
	return &Model{Cfg: cfg, KROB: krob, KRes: fitted(kres, ladder)}, prof, nil
}

// unmeasured returns, ascending, the window sizes of ladder and of maxROB's
// ladder that have no entry in have.
func (s *ModelSet) unmeasured(have map[int]float64, ladder []int) []int {
	var todo []int
	for _, w := range append(windowLadder(s.maxROB), ladder...) {
		if _, ok := have[w]; !ok && !slices.Contains(todo, w) {
			todo = append(todo, w)
		}
	}
	slices.Sort(todo)
	return todo
}

// fitted returns the characteristic of the measured K(w) at the windows of
// ladder.
func fitted(k map[int]float64, ladder []int) ilp.Characteristic {
	ks := make([]float64, len(ladder))
	for i, w := range ladder {
		ks[i] = k[w]
	}
	return ilp.NewCharacteristic(ladder, ks)
}
