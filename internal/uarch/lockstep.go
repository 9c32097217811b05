package uarch

import (
	"context"
	"fmt"

	"intervalsim/internal/overlay"
	"intervalsim/internal/trace"
)

// SimulateMany runs one simulator per configuration over the same packed
// trace, advancing all of them in lockstep, one step each per round (a step
// is one simulated cycle plus the dead cycles it skips after it). The K
// simulators share the trace's struct-of-arrays storage (and the overlay,
// when one is given): at any moment every active simulator's fetch index sits within a
// window of the others, so the trace bytes each cycle touches are resident
// for all K configs instead of being streamed from memory K times — the
// traffic that dominates a serial sweep of the same configurations.
//
// Results are byte-identical to running each configuration serially with
// Run: a simulator's step transition reads only its own state, so the
// interleaving cannot change any individual outcome (pinned by
// TestLockstepMatchesSerial). Per-config fast-path selection and overlay
// applicability are decided independently for every configuration, so each
// Result carries its own Path and Fallback — a K-set may mix replayed,
// live-SoA, and sampled-fallback members.
//
// ov may be nil (live simulation for every config); when non-nil it
// overrides opts.Overlay for every member. opts applies to every config.
//
// Any member failing — watchdog expiry (ErrWatchdog), cancellation
// (ErrCanceled), or a trace error — aborts the whole batch: the first error
// encountered in config order is returned and no results are produced. A
// stuck configuration therefore cannot silently stall its K-set siblings.
func SimulateMany(ctx context.Context, soa *trace.SoA, ov *overlay.Overlay, cfgs []Config, opts Options) ([]*Result, error) {
	if soa == nil {
		return nil, fmt.Errorf("uarch: SimulateMany: nil trace")
	}
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("uarch: SimulateMany: empty config set")
	}
	for i := range cfgs {
		if err := cfgs[i].Validate(); err != nil {
			return nil, fmt.Errorf("lockstep config %d: %w", i, err)
		}
	}
	opts.Overlay = ov
	sims := make([]*simulator, len(cfgs))
	for i, cfg := range cfgs {
		s, err := newSimulator(soa.Reader(), cfg, opts)
		if err != nil {
			return nil, fmt.Errorf("lockstep config %d (%s): %w", i, cfg.Name, err)
		}
		s.initRun()
		sims[i] = s
	}
	running := len(sims)
	done := make([]bool, len(sims))
	for running > 0 {
		for i, s := range sims {
			if done[i] {
				continue
			}
			fin, err := s.step(ctx)
			if err != nil {
				return nil, fmt.Errorf("lockstep config %d (%s): %w", i, s.cfg.Name, err)
			}
			if fin {
				done[i] = true
				running--
			}
		}
	}
	results := make([]*Result, len(sims))
	for i, s := range sims {
		results[i] = s.finalize()
	}
	return results, nil
}
