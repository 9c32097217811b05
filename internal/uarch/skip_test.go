package uarch

import (
	"context"
	"fmt"
	"testing"

	"intervalsim/internal/overlay"
	"intervalsim/internal/vpred"
	"intervalsim/internal/workload"
)

// onLoop runs fn on the production loop (skip true: dead cycles skipped) or
// on the one-cycle-at-a-time loop (skip false). Both issue on wakeup.
func onLoop(skip bool, fn func()) {
	if !skip {
		skipDeadCycles = false
		defer func() { skipDeadCycles = true }()
	}
	fn()
}

// onReference runs fn on the reference the production loop must reproduce:
// the one-cycle-at-a-time loop, issuing by scanIssue when scan is set and on
// wakeup otherwise. scanIssue reads dependences by trace index, so only runs
// that are not fast-forwarded can take it.
func onReference(scan bool, fn func()) {
	if scan {
		issueSelect = scanIssue
		defer func() { issueSelect = nil }()
	}
	onLoop(false, fn)
}

// scanIssue is the issue stage that issue on wakeup replaced, kept as its
// reference: every cycle it polls the operands of each unissued in-flight
// entry, oldest first, and issues — through the production issueOn — up to
// IssueWidth entries whose pool has a free unit and whose producers have
// each committed, been value-predicted, or issued with their doneAt reached.
// It reads the producers from the packed trace's Dep1/Dep2/DepMem at the
// entry's sequence number.
func scanIssue(s *simulator) int {
	ready := func(dep int32) bool {
		if dep < 0 || uint64(dep) < s.head {
			return true
		}
		p := &s.rob[s.robSlot(uint64(dep))]
		return p.vpredOK || p.issued && p.doneAt <= s.cycle
	}
	issued := 0
	// left counts the unissued entries not visited yet: none is younger.
	for seq, left := s.head, s.unissued; left > 0 && issued < s.cfg.IssueWidth; seq++ {
		slot := s.robSlot(seq)
		e := &s.rob[slot]
		if e.issued {
			continue
		}
		left--
		if !ready(s.soa.Dep1[seq]) || !ready(s.soa.Dep2[seq]) || !ready(s.soa.DepMem[seq]) {
			continue
		}
		if unit := s.freeUnit(e.class); unit >= 0 {
			s.issueOn(slot, unit)
			issued++
		}
	}
	return issued
}

// sameError requires a production run to fail like the run named what:
// both succeed, or both fail with the same text, cycle numbers included.
func sameError(t *testing.T, what string, ref, got error) {
	t.Helper()
	if (ref == nil) != (got == nil) || (ref != nil && ref.Error() != got.Error()) {
		t.Fatalf("error: %s %v, production %v", what, ref, got)
	}
}

// skipConfigs is the machine matrix of the skip differential: width ×
// frontend depth × ROB size (48 is not a power of two, so ROB slots wrap
// unevenly), plus one machine with value prediction and fetch throttling.
func skipConfigs(wc workload.Config) []Config {
	var cfgs []Config
	for _, w := range []int{2, 4, 8} {
		for _, d := range []int{3, 11} {
			for _, rob := range []int{48, 128, 256} {
				c := Baseline()
				c.Name = fmt.Sprintf("w%d-d%d-r%d", w, d, rob)
				c.FetchWidth, c.DispatchWidth, c.IssueWidth, c.CommitWidth = w, w, w, w
				c.FrontendDepth = d
				c.ROBSize, c.IQSize = rob, rob/2
				cfgs = append(cfgs, c)
			}
		}
	}
	vp, _ := vpred.Preset("stride")
	vp.Stream = wc.ValueStream()
	c := Baseline()
	c.Name = "vpred-fetchrate"
	c.VPred = &vp
	c.FetchRate = 0.5
	return append(cfgs, c)
}

// TestDeadCycleSkipMatchesReference is the contract behind dead-cycle
// skipping and issue on wakeup: the production loop must reproduce the
// reference exactly — every counter, stall bucket, event, record, timeline
// entry and load level, or the same error text when a watchdog fires — for
// every suite program, machine and option set, live and replayed. The
// reference simulates every cycle and, unless the run is fast-forwarded,
// issues by the operand-polling scan; fast-forwarded (sampled) runs number
// their entries by dispatch slot, which the scan cannot read dependences
// by, so their reference issues on wakeup.
func TestDeadCycleSkipMatchesReference(t *testing.T) {
	programs := workload.Suite()
	if raceEnabled {
		// The simulator runs on one goroutine, so the race detector finds
		// nothing here; two programs keep the race build fast. The CI skip
		// gate runs the full matrix without -race.
		programs = programs[:2]
	}
	for _, wc := range programs {
		soa := packedTrace(t, wc.Name, 20_000)
		for _, cfg := range skipConfigs(wc) {
			ov, err := overlay.ComputeSpec(soa, cfg.Pred, cfg.Mem, cfg.VPred)
			if err != nil {
				t.Fatal(err)
			}
			opts := diffOptions()
			opts["maxcycles"] = Options{RecordMispredicts: true, MaxCycles: 30_000}
			opts["noprogress"] = Options{NoProgressCycles: 100}
			opts["replay-warmup"] = Options{
				Overlay: ov, WarmupInsts: 10_000,
				RecordEvents: true, RecordMispredicts: true, RecordLoadLevels: true,
			}
			for oname, o := range opts {
				t.Run(wc.Name+"/"+cfg.Name+"/"+oname, func(t *testing.T) {
					var ref *Result
					var refErr error
					onReference(!o.fastForwarded(), func() { ref, refErr = Run(soa.Reader(), cfg, o) })
					got, err := Run(soa.Reader(), cfg, o)
					sameError(t, "reference loop", refErr, err)
					if err != nil {
						return
					}
					if o.Overlay != nil && got.Path != "soa+overlay" {
						t.Fatalf("replay run took path %q (fallback %q)", got.Path, got.Fallback)
					}
					compareResults(t, ref, got)
				})
			}
		}
	}
}

// TestDeadCycleSkipEngages guards the speed-up itself, which the
// differential tests cannot see: they pass just as well when nothing is
// skipped. Memory-bound mcf stalls behind long misses for most of its
// cycles, so most of them must be skipped.
func TestDeadCycleSkipEngages(t *testing.T) {
	s, err := newSimulator(packedTrace(t, "mcf", 50_000), Baseline(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if share := float64(s.skipped) / float64(res.Cycles); share < 0.5 {
		t.Errorf("skipped %d of %d cycles (%.0f%%), want at least half", s.skipped, res.Cycles, 100*share)
	}
}

// TestCycleAccountingIdentity pins the simulator's cycle accounting: every
// cycle either dispatched (a non-zero timeline entry) or was charged to
// exactly one stall bucket, on both loops.
func TestCycleAccountingIdentity(t *testing.T) {
	const timeline = 1 << 20 // longer than any run below
	modes := map[string]Options{
		"plain":     {},
		"wrongpath": {WrongPathFetch: true},
		"sampled":   {SampleStartSkip: 5_000, SampleDetailed: 4_000, SampleSkip: 6_000},
	}
	for _, wc := range workload.Suite() {
		soa := packedTrace(t, wc.Name, 20_000)
		for mname, opts := range modes {
			opts.TimelineCycles = timeline
			for _, skip := range []bool{true, false} {
				t.Run(fmt.Sprintf("%s/%s/skip=%v", wc.Name, mname, skip), func(t *testing.T) {
					var res *Result
					var err error
					onLoop(skip, func() { res, err = Run(soa.Reader(), Baseline(), opts) })
					if err != nil {
						t.Fatal(err)
					}
					if res.Cycles >= timeline {
						t.Fatalf("run of %d cycles outgrew the %d-cycle timeline", res.Cycles, timeline)
					}
					checkCycleAccounting(t, res)
				})
			}
		}
	}
}

// checkCycleAccounting requires every cycle of res, a run without warmup
// whose timeline covers all its cycles, to have dispatched or been charged
// to exactly one stall bucket.
func checkCycleAccounting(t *testing.T, res *Result) {
	t.Helper()
	if uint64(len(res.Timeline)) != res.Cycles {
		t.Fatalf("timeline has %d entries for %d cycles", len(res.Timeline), res.Cycles)
	}
	var dispatching uint64
	for _, n := range res.Timeline {
		if n > 0 {
			dispatching++
		}
	}
	st := res.Stalls
	stalled := st.BranchResolve + st.Refill + st.ICacheMiss + st.ROBFull + st.IQFull + st.Other
	if dispatching+stalled != res.Cycles {
		t.Errorf("%d dispatching + %d stalled cycles != %d cycles (stalls %+v)",
			dispatching, stalled, res.Cycles, st)
	}
}
