package ilp

import (
	"math"
	"testing"

	"intervalsim/internal/isa"
	"intervalsim/internal/trace"
)

// uniform returns a table giving every class latency l.
func uniform(l float64) Latencies {
	var t Latencies
	for c := range t {
		t[c] = l
	}
	return t
}

// resolution runs ProfileResolution on one window: insts with its last
// record turned into a branch reading the same sources. The branch is the
// only one with a full window behind it, so K[0] is its resolution time.
// The reference scheduler must agree on the same window.
func resolution(t *testing.T, insts []isa.Inst, lat Latencies, width int) float64 {
	t.Helper()
	tr := &trace.Trace{Insts: append([]isa.Inst(nil), insts...)}
	if n := len(tr.Insts); n > 0 {
		last := &tr.Insts[n-1]
		last.Class, last.Dst, last.Target, last.Taken = isa.Branch, isa.NoReg, 0x1000, true
	}
	c, err := ProfileResolution(trace.Pack(tr), []int{max(len(insts), 1)}, lat, width, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ref := refScheduledResolution(tr.Insts, tableFunc(lat), width); c.K[0] != ref {
		t.Fatalf("kernel resolution %v, reference %v", c.K[0], ref)
	}
	return c.K[0]
}

func TestScheduledResolutionEmptyAndWidth(t *testing.T) {
	if resolution(t, nil, UnitLatencies(), 4) != 0 {
		t.Error("empty window should resolve in 0")
	}
	// Non-positive width treated as 1.
	in := []isa.Inst{alu(isa.NoReg, 8)}
	if got := resolution(t, in, UnitLatencies(), 0); got != 2 {
		t.Errorf("single inst at width 0 = %v, want 2 (dispatch 0, issue 1, done 2)", got)
	}
}

func TestScheduledResolutionIndependentLastInst(t *testing.T) {
	// The final instruction is independent: it dispatches at 0, issues at 1,
	// completes at 1+lat regardless of how much older work is in the window.
	window := make([]isa.Inst, 64)
	for i := range window {
		window[i] = alu(8, 8) // long serial chain
	}
	window[63] = alu(isa.NoReg, 30)
	if got := resolution(t, window, UnitLatencies(), 4); got != 2 {
		t.Errorf("independent branch resolution = %v, want 2", got)
	}
}

func TestScheduledResolutionCreditsOldWork(t *testing.T) {
	// A chain of 8 unit-latency ops ending at the "branch": the raw critical
	// path to it is 8, but the older links dispatched earlier and already
	// executed, so the scheduled resolution is much smaller.
	window := make([]isa.Inst, 8)
	for i := range window {
		window[i] = alu(8, 8)
	}
	raw := CriticalPathTo(window, UnitLatency)
	sched := resolution(t, window, UnitLatencies(), 4)
	if raw != 8 {
		t.Fatalf("raw = %v", raw)
	}
	if sched >= raw {
		t.Errorf("scheduled (%v) not below raw critical path (%v)", sched, raw)
	}
	if sched < 2 {
		t.Errorf("scheduled = %v, below the minimum dispatch→complete time", sched)
	}
}

func TestScheduledResolutionChainDominatesWhenSteep(t *testing.T) {
	// With 20-cycle ops, the chain grows faster than dispatch retires it:
	// the resolution approaches the raw weighted path.
	lat20 := func(_ int, _ *isa.Inst) float64 { return 20 }
	window := make([]isa.Inst, 6)
	for i := range window {
		window[i] = alu(8, 8)
	}
	raw := CriticalPathTo(window, lat20)
	sched := resolution(t, window, uniform(20), 4)
	if sched < raw-10 {
		t.Errorf("scheduled %v far below raw %v despite steep chain", sched, raw)
	}
}

func TestScheduledResolutionNeverNegative(t *testing.T) {
	// A huge window of independent work that completed long ago still
	// reports a non-negative resolution.
	window := make([]isa.Inst, 256)
	for i := range window {
		window[i] = alu(isa.NoReg, int8(8+i%32))
	}
	if got := resolution(t, window, UnitLatencies(), 8); got < 0 {
		t.Errorf("negative resolution %v", got)
	}
}

func TestProfileResolutionSaturates(t *testing.T) {
	// Programs whose branches test short block-local chains: the resolution
	// characteristic must flatten while the whole-window K keeps rising.
	soa := trace.Pack(branchyTrace(11, 60_000))
	windows := []int{2, 4, 8, 16, 32, 64, 128}
	res, err := ProfileResolution(soa, windows, UnitLatencies(), 4, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	full, err := Profile(soa, windows, UnitLatencies(), 0)
	if err != nil {
		t.Fatal(err)
	}
	last := len(windows) - 1
	growRes := res.K[last] - res.K[2]
	growFull := full.K[last] - full.K[2]
	if growRes > growFull/2 {
		t.Errorf("resolution characteristic grows like the full window: %+.2f vs %+.2f", growRes, growFull)
	}
	for i := 1; i < len(res.K); i++ {
		if res.K[i]+1e-9 < res.K[i-1] {
			t.Errorf("resolution K not monotone at window %d: %v < %v", windows[i], res.K[i], res.K[i-1])
		}
	}
}

func TestProfileResolutionSampling(t *testing.T) {
	soa := trace.Pack(branchyTrace(13, 30_000))
	windows := []int{4, 16, 64}
	all, err := ProfileResolution(soa, windows, UnitLatencies(), 4, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	sampled, err := ProfileResolution(soa, windows, UnitLatencies(), 4, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := range windows {
		if all.K[i] == 0 || sampled.K[i] == 0 {
			t.Fatalf("empty characteristic at window %d", windows[i])
		}
		diff := all.K[i] - sampled.K[i]
		if diff < 0 {
			diff = -diff
		}
		if diff > all.K[i]*0.25 {
			t.Errorf("sampling shifted K(%d) by %.2f (from %.2f)", windows[i], diff, all.K[i])
		}
	}
}

func TestProfileResolutionValidation(t *testing.T) {
	soa := trace.Pack(branchyTrace(17, 1000))
	if _, err := ProfileResolution(soa, nil, UnitLatencies(), 4, 0, 1); err == nil {
		t.Error("empty windows accepted")
	}
	if _, err := ProfileResolution(soa, []int{8, 4}, UnitLatencies(), 4, 0, 1); err == nil {
		t.Error("descending windows accepted")
	}
	// A bad latency is refused with Profile's error, not turned into NaN K.
	negative, nan := UnitLatencies(), UnitLatencies()
	negative[isa.IntALU], nan[isa.Branch] = -1, math.NaN()
	for name, lat := range map[string]Latencies{"negative": negative, "NaN": nan} {
		_, want := Profile(soa, []int{2, 4}, lat, 0)
		_, err := ProfileResolution(soa, []int{2, 4}, lat, 4, 0, 1)
		if err == nil || want == nil || err.Error() != want.Error() {
			t.Errorf("%s latency: ProfileResolution error %v, Profile error %v", name, err, want)
		}
	}
}

// branchyTrace builds blocks of chained ALU work ending in a branch that
// tests the block's chain result.
func branchyTrace(seed uint64, n int) *trace.Trace {
	tr := &trace.Trace{}
	pc := uint64(0x1000)
	for len(tr.Insts) < n {
		chain := int8(8 + len(tr.Insts)%16)
		for k := 0; k < 6; k++ {
			tr.Insts = append(tr.Insts, alu(chain, chain))
			pc += 4
		}
		tr.Insts = append(tr.Insts, isa.Inst{
			PC: pc, Class: isa.Branch, Src1: chain, Src2: isa.NoReg, Dst: isa.NoReg,
			Target: 0x1000, Taken: len(tr.Insts)%3 != 0,
		})
		pc += 4
	}
	return tr
}
