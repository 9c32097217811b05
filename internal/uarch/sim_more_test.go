package uarch

import (
	"testing"

	"intervalsim/internal/cache"
	"intervalsim/internal/isa"
	"intervalsim/internal/overlay"
	"intervalsim/internal/trace"
	"intervalsim/internal/workload"
)

// straightALU returns a trace of n independent single-line-looping ALU ops.
func straightALU(n int) *trace.Trace {
	return loopTrace(n/9, 8, func(pc uint64, _ int) []isa.Inst {
		out := make([]isa.Inst, 8)
		for i := range out {
			out[i] = aluInst(pc+uint64(i)*4, isa.NoReg, int8(8+i))
		}
		return out
	})
}

func TestDispatchWidthScalesThroughput(t *testing.T) {
	tr := straightALU(20_000)
	narrow := testConfig()
	narrow.FetchWidth, narrow.DispatchWidth, narrow.IssueWidth, narrow.CommitWidth = 1, 1, 1, 1
	wide := testConfig()
	resN := mustRun(t, tr, narrow, Options{})
	resW := mustRun(t, straightALU(20_000), wide, Options{})
	if resN.IPC() > 1.01 {
		t.Errorf("1-wide IPC = %.2f > 1", resN.IPC())
	}
	if resW.IPC() < resN.IPC()*2 {
		t.Errorf("4-wide (%.2f) not clearly faster than 1-wide (%.2f)", resW.IPC(), resN.IPC())
	}
}

func TestCommitWidthBoundsIPC(t *testing.T) {
	cfg := testConfig()
	cfg.CommitWidth = 2
	res := mustRun(t, straightALU(20_000), cfg, Options{})
	if res.IPC() > 2.01 {
		t.Errorf("IPC %.2f exceeds commit width 2", res.IPC())
	}
}

func TestStructuralHazardSingleALU(t *testing.T) {
	// Independent ALU ops but only one ALU: issue is structurally limited
	// to 1/cycle.
	cfg := testConfig()
	cfg.FU.IntALU.Count = 1
	res := mustRun(t, straightALU(20_000), cfg, Options{})
	if res.IPC() > 1.05 {
		t.Errorf("IPC %.2f with a single ALU", res.IPC())
	}
}

func TestUnpipelinedDivBlocksUnit(t *testing.T) {
	// Back-to-back independent divides on one unpipelined 20-cycle divider:
	// throughput 1/20. With a pipelined divider, ~1/1 after fill.
	mk := func() *trace.Trace {
		return loopTrace(400, 8, func(pc uint64, _ int) []isa.Inst {
			out := make([]isa.Inst, 8)
			for i := range out {
				out[i] = isa.Inst{PC: pc + uint64(i)*4, Class: isa.IntDiv, Src1: isa.NoReg, Src2: isa.NoReg, Dst: int8(8 + i)}
			}
			return out
		})
	}
	slow := testConfig()
	fast := testConfig()
	fast.FU.IntDiv.Pipelined = true
	resSlow := mustRun(t, mk(), slow, Options{})
	resFast := mustRun(t, mk(), fast, Options{})
	if resFast.Cycles*5 > resSlow.Cycles {
		t.Errorf("pipelined divider not much faster: %d vs %d cycles", resFast.Cycles, resSlow.Cycles)
	}
}

func TestIQSizeLimitsLatencyHiding(t *testing.T) {
	// Each iteration long-misses on an independent line and then runs
	// dependents of that load. A tiny issue queue fills with the waiting
	// dependents before the next independent miss can dispatch, so misses
	// serialize; a large IQ exposes the memory-level parallelism.
	mk := func() *trace.Trace {
		tr := &trace.Trace{}
		for it := 0; it < 150; it++ {
			pc := uint64(0x1000)
			dst := int8(8 + it%8)
			tr.Insts = append(tr.Insts, isa.Inst{
				PC: pc, Class: isa.Load, Src1: 1, Src2: isa.NoReg, Dst: dst,
				Addr: 0x10000000 + uint64(it)*4096,
			})
			for i := 1; i <= 10; i++ {
				tr.Insts = append(tr.Insts, aluInst(pc+uint64(i)*4, dst, int8(24+i)))
			}
			tr.Insts = append(tr.Insts, isa.Inst{PC: pc + 44, Class: isa.Jump, Taken: true, Target: pc, Src1: isa.NoReg, Src2: isa.NoReg, Dst: isa.NoReg})
		}
		return tr
	}
	small := testConfig()
	small.IQSize = 4
	big := testConfig()
	resSmall := mustRun(t, mk(), small, Options{})
	resBig := mustRun(t, mk(), big, Options{})
	if resSmall.Cycles < resBig.Cycles*2 {
		t.Errorf("small IQ (%d cycles) not clearly slower than big IQ (%d cycles)", resSmall.Cycles, resBig.Cycles)
	}
	if resSmall.Stalls.IQFull == 0 {
		t.Error("no IQ-full stalls recorded with a 4-entry IQ")
	}
}

func TestWarmupSubtraction(t *testing.T) {
	tr := straightALU(30_000)
	full := mustRun(t, straightALU(30_000), testConfig(), Options{})
	warm := mustRun(t, tr, testConfig(), Options{WarmupInsts: 10_000})
	if warm.Insts != full.Insts-10_000 {
		t.Errorf("warm insts = %d, want %d", warm.Insts, full.Insts-10_000)
	}
	if warm.Cycles >= full.Cycles {
		t.Errorf("warm cycles = %d not below full %d", warm.Cycles, full.Cycles)
	}
	// Steady-state IPC after warmup must be at least the overall IPC
	// (cold-start effects excluded).
	if warm.IPC() < full.IPC() {
		t.Errorf("post-warmup IPC %.2f below overall %.2f", warm.IPC(), full.IPC())
	}
}

func TestWarmupFiltersRecordsAndEvents(t *testing.T) {
	cfg := testConfig()
	cfg.Pred = PredictorSpec{Kind: "not-taken"}
	mk := func() *trace.Trace {
		tr := loopTrace(2000, 8, func(pc uint64, _ int) []isa.Inst {
			out := make([]isa.Inst, 8)
			for i := range out {
				out[i] = aluInst(pc+uint64(i)*4, isa.NoReg, int8(8+i))
			}
			return out
		})
		for i := range tr.Insts {
			if tr.Insts[i].Class == isa.Jump {
				tr.Insts[i].Class = isa.Branch
			}
		}
		return tr
	}
	full := mustRun(t, mk(), cfg, Options{RecordEvents: true, RecordMispredicts: true})
	warm := mustRun(t, mk(), cfg, Options{RecordEvents: true, RecordMispredicts: true, WarmupInsts: 9000})
	if len(warm.Records) >= len(full.Records) {
		t.Errorf("warmup did not trim records: %d vs %d", len(warm.Records), len(full.Records))
	}
	if len(warm.Events) >= len(full.Events) {
		t.Errorf("warmup did not trim events: %d vs %d", len(warm.Events), len(full.Events))
	}
	for _, r := range warm.Records {
		if r.Index < 9000 {
			t.Fatalf("pre-warmup record survived: index %d", r.Index)
		}
	}
	if warm.Mispredicts != uint64(len(warm.Records)) {
		t.Errorf("mispredict count %d != records %d", warm.Mispredicts, len(warm.Records))
	}
}

func TestJumpBTBMissIsRedirect(t *testing.T) {
	// Alternating jump targets defeat the BTB: every other jump redirects.
	cfg := testConfig()
	cfg.Pred = PredictorSpec{Kind: "taken", BTBEntries: 16}
	tr := &trace.Trace{}
	a, bb := uint64(0x1000), uint64(0x3000)
	cur := a
	for i := 0; i < 600; i++ {
		other := bb
		if cur == bb {
			other = a
		}
		for k := 0; k < 4; k++ {
			tr.Insts = append(tr.Insts, aluInst(cur+uint64(k)*4, isa.NoReg, int8(8+k)))
		}
		// The jump at the end of each block targets the other block; same
		// jump PC alternates targets, so the direct-mapped BTB always holds
		// the stale one.
		tr.Insts = append(tr.Insts, isa.Inst{
			PC: cur + 16, Class: isa.Jump, Taken: true, Target: other,
			Src1: isa.NoReg, Src2: isa.NoReg, Dst: isa.NoReg,
		})
		cur = other
	}
	res := mustRun(t, tr, cfg, Options{RecordMispredicts: true})
	if res.Bpred.BTBMispredict < 500 {
		t.Errorf("BTB mispredicts = %d, want ~600", res.Bpred.BTBMispredict)
	}
	if res.AvgMispredictPenalty() < float64(cfg.FrontendDepth) {
		t.Errorf("jump redirect penalty %.1f below frontend depth", res.AvgMispredictPenalty())
	}
}

func TestOccupancyNeverExceedsROB(t *testing.T) {
	cfg := testConfig()
	cfg.Pred = PredictorSpec{Kind: "not-taken"}
	cfg.ROBSize, cfg.IQSize = 32, 16
	wc, _ := workload.SuiteConfig("crafty")
	tr, err := trace.ReadAll(workload.MustNew(wc, 60_000))
	if err != nil {
		t.Fatal(err)
	}
	res := mustRun(t, tr, cfg, Options{RecordMispredicts: true})
	for _, r := range res.Records {
		if r.Occupancy < 0 || r.Occupancy >= cfg.ROBSize {
			t.Fatalf("occupancy %d outside [0, %d)", r.Occupancy, cfg.ROBSize)
		}
		if r.OldestInROB > r.Index {
			t.Fatalf("head %d beyond branch %d", r.OldestInROB, r.Index)
		}
	}
}

func TestCyclesLowerBound(t *testing.T) {
	// Cycles can never beat the dispatch-width bound.
	wc, _ := workload.SuiteConfig("gap")
	tr, err := trace.ReadAll(workload.MustNew(wc, 50_000))
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	res := mustRun(t, tr, cfg, Options{})
	if res.Cycles < res.Insts/uint64(cfg.DispatchWidth) {
		t.Errorf("cycles %d below width bound %d", res.Cycles, res.Insts/uint64(cfg.DispatchWidth))
	}
}

func TestLoadLevelRecording(t *testing.T) {
	cfg := testConfig()
	tr := &trace.Trace{}
	// One load that long-misses, one ALU, one load that L1-hits (same line).
	tr.Insts = append(tr.Insts,
		isa.Inst{PC: 0x1000, Class: isa.Load, Src1: 1, Src2: isa.NoReg, Dst: 8, Addr: 0x50000},
		aluInst(0x1004, 8, 9),
		isa.Inst{PC: 0x1008, Class: isa.Load, Src1: 1, Src2: isa.NoReg, Dst: 10, Addr: 0x50008},
	)
	res := mustRun(t, tr, cfg, Options{RecordLoadLevels: true})
	lvl0, ok0 := res.LoadLevel(0)
	lvl2, ok2 := res.LoadLevel(2)
	if !ok0 || !ok2 {
		t.Fatal("load levels not recorded")
	}
	if lvl0 != cache.LongMiss {
		t.Errorf("first load level = %v, want long miss", lvl0)
	}
	if lvl2 != cache.L1Hit {
		t.Errorf("second load level = %v, want L1 hit", lvl2)
	}
	if _, ok := res.LoadLevel(1); ok {
		t.Error("non-load reported a level")
	}
	if _, ok := res.LoadLevel(99); ok {
		t.Error("out-of-range index reported a level")
	}
}

func TestStallAccountingSumsBelowCycles(t *testing.T) {
	wc, _ := workload.SuiteConfig("parser")
	tr, err := trace.ReadAll(workload.MustNew(wc, 60_000))
	if err != nil {
		t.Fatal(err)
	}
	res := mustRun(t, tr, uarchBaselineForTest(), Options{})
	s := res.Stalls
	total := s.BranchResolve + s.Refill + s.ICacheMiss + s.ROBFull + s.IQFull + s.Other
	if total > res.Cycles {
		t.Errorf("stall cycles %d exceed total cycles %d", total, res.Cycles)
	}
	if total == 0 {
		t.Error("no stalls recorded on a realistic workload")
	}
}

func TestResultAccessorsZero(t *testing.T) {
	var r Result
	if r.IPC() != 0 || r.CPI() != 0 || r.AvgMispredictPenalty() != 0 {
		t.Error("zero result accessors should be 0")
	}
}

func TestPenaltyAccessorsDegenerate(t *testing.T) {
	r := MispredictRecord{DispatchCycle: 100}
	if r.Penalty() != 0 {
		t.Error("no-resume record should have zero penalty")
	}
	if r.ResolutionTime() != 0 {
		t.Error("unresolved record should have zero resolution")
	}
}

func uarchBaselineForTest() Config { return testConfig() }

func TestSampledSimulationApproximatesFullCPI(t *testing.T) {
	wc, _ := workload.SuiteConfig("crafty")
	mk := func() trace.Reader { return workload.MustNew(wc, 400_000) }
	cfg := testConfig()
	full, err := Run(mk(), cfg, Options{WarmupInsts: 100_000})
	if err != nil {
		t.Fatal(err)
	}
	sampled, err := Run(mk(), cfg, Options{
		WarmupInsts:    50_000,
		SampleDetailed: 20_000,
		SampleSkip:     60_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sampled.Sampled {
		t.Fatal("sampled flag not set")
	}
	// Only ~1/4 of instructions are simulated in detail.
	if sampled.Insts >= full.Insts/2 {
		t.Fatalf("sampling did not reduce detailed instructions: %d vs %d", sampled.Insts, full.Insts)
	}
	relErr := (sampled.CPI() - full.CPI()) / full.CPI()
	if relErr < -0.15 || relErr > 0.15 {
		t.Errorf("sampled CPI %.3f vs full %.3f (err %.1f%%)", sampled.CPI(), full.CPI(), relErr*100)
	}
}

func TestSampledPredictorAndCachesStayWarm(t *testing.T) {
	// With functional warming, the sampled run's branch MPKI over detailed
	// phases must be close to the full run's — a cold predictor would show
	// a large excess.
	wc, _ := workload.SuiteConfig("gzip")
	mk := func() trace.Reader { return workload.MustNew(wc, 400_000) }
	cfg := testConfig()
	cfg.Pred = PredictorSpec{Kind: "gshare", Entries: 4096, HistBits: 10, BTBEntries: 1024}
	full, err := Run(mk(), cfg, Options{WarmupInsts: 100_000})
	if err != nil {
		t.Fatal(err)
	}
	sampled, err := Run(mk(), cfg, Options{
		WarmupInsts:    50_000,
		SampleDetailed: 20_000,
		SampleSkip:     60_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	fullMPKI := float64(full.Mispredicts) / float64(full.Insts) * 1000
	sampMPKI := float64(sampled.Mispredicts) / float64(sampled.Insts) * 1000
	if sampMPKI > fullMPKI*1.6+2 {
		t.Errorf("sampled MPKI %.1f far above full %.1f: warming broken", sampMPKI, fullMPKI)
	}
}

func TestWrongPathFetchPollutesICache(t *testing.T) {
	// gcc-like code with a cold footprint: wrong-path fetch must touch
	// lines the correct path never reaches and change I-cache behaviour.
	wc, _ := workload.SuiteConfig("gcc")
	mk := func() trace.Reader { return workload.MustNew(wc, 150_000) }
	cfg := testConfig()
	cfg.Pred = PredictorSpec{Kind: "bimodal", Entries: 1024, BTBEntries: 512}
	off, err := Run(mk(), cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	on, err := Run(mk(), cfg, Options{WrongPathFetch: true})
	if err != nil {
		t.Fatal(err)
	}
	if on.WrongPathIMisses == 0 {
		t.Fatal("no wrong-path I-misses recorded")
	}
	if off.WrongPathIMisses != 0 {
		t.Fatal("wrong-path misses counted with the option off")
	}
	if on.Insts != off.Insts {
		t.Fatalf("wrong-path fetch changed committed count: %d vs %d", on.Insts, off.Insts)
	}
	// I-cache access counts must differ (the pollution/prefetch effect), and
	// both runs stay in a sane performance range.
	if on.Caches.L1I.Accesses == off.Caches.L1I.Accesses {
		t.Error("wrong-path fetch did not touch the I-cache")
	}
	ratio := on.CPI() / off.CPI()
	if ratio < 0.8 || ratio > 1.3 {
		t.Errorf("wrong-path fetch moved CPI by %.2fx; model suspicious", ratio)
	}
}

// TestRunAllocations pins what a run allocates: the simulator sizes its
// pools from the machine once, before the first cycle, so a run of 200K
// instructions allocates exactly what a run of 20K does, and no more than
// the 40 objects of the baseline machine, live or replayed.
func TestRunAllocations(t *testing.T) {
	const maxAllocs = 40
	cfg := Baseline()
	counts := map[string][]float64{}
	for _, n := range []int{20_000, 200_000} {
		soa := packedTrace(t, "mcf", n)
		ov, err := overlay.ComputeSpec(soa, cfg.Pred, cfg.Mem, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []struct {
			name string
			opts Options
		}{{"live", Options{}}, {"replay", Options{Overlay: ov}}} {
			// Ten runs: a runtime allocation during one of them (a GC
			// worker's sudog, a new OS thread) rounds away in the average.
			allocs := testing.AllocsPerRun(10, func() {
				if _, err := Run(soa.Reader(), cfg, mode.opts); err != nil {
					t.Fatal(err)
				}
			})
			counts[mode.name] = append(counts[mode.name], allocs)
		}
	}
	for mode, c := range counts {
		if c[0] != c[1] || c[1] > maxAllocs {
			t.Errorf("%s: %v allocations at 20K instructions, %v at 200K; want equal and at most %d", mode, c[0], c[1], maxAllocs)
		}
	}
}
