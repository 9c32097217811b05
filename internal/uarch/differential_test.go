package uarch

import (
	"fmt"
	"reflect"
	"testing"

	"intervalsim/internal/isa"
	"intervalsim/internal/trace"
	"intervalsim/internal/workload"
)

// diffOptions are the instrumentation matrices the differential tests cover:
// bare runs, fully recorded runs, warmup subtraction, instruction limits,
// wrong-path fetch, and sampled simulation.
func diffOptions() map[string]Options {
	return map[string]Options{
		"bare":     {},
		"recorded": {RecordEvents: true, RecordMispredicts: true, RecordLoadLevels: true, TimelineCycles: 4096},
		"warmup":   {RecordEvents: true, RecordMispredicts: true, RecordLoadLevels: true, WarmupInsts: 10_000},
		"maxinsts": {RecordMispredicts: true, MaxInsts: 17_001},
		"wrongpath": {
			RecordEvents: true, WrongPathFetch: true,
		},
		"sampled": {SampleStartSkip: 5_000, SampleDetailed: 4_000, SampleSkip: 6_000},
	}
}

// randomMachine derives a machine from a seed over the axes a sweep varies:
// width, frontend depth, ROB and issue-queue size. ROB sizes are mostly not
// powers of two, so slots wrap unevenly.
func randomMachine(seed uint64) Config {
	pick := func(shift uint, mod int) int { return int((seed >> shift) % uint64(mod)) }
	c := Baseline()
	c.Name = fmt.Sprintf("rand-%#x", seed)
	w := 1 << pick(0, 4) // 1, 2, 4 or 8 wide
	c.FetchWidth, c.DispatchWidth, c.IssueWidth, c.CommitWidth = w, w, w, w
	c.FrontendDepth = 2 + pick(8, 14)
	c.ROBSize = 24 + 8*pick(16, 30)
	c.IQSize = min(8+4*pick(24, 16), c.ROBSize)
	return c
}

// lastWriters is the dependence reference: it tracks the last writer of
// every register and stored word over the instructions a run dispatches, by
// sequence number. The trace indices the run skipped, the gap between two
// consecutive dispatched indices, forget the producers they overwrite: a
// skipped instruction takes no time, so its result is ready. It forgets
// lazily, at the next dispatch, not when the run skips: instructions
// fetched before a skip can still wait in the frontend queue, and they must
// not see the skipped writes.
type lastWriters struct {
	next  uint64 // the trace index after the last one dispatched
	reg   [isa.NumRegs]int64
	store map[uint64]int64 // word address → youngest store
}

// producers is a depSelect: the producers of the instruction at trace index
// idx, dispatching as sequence number seq.
func (w *lastWriters) producers(s *simulator, idx, seq uint64) (p1, p2, pm int64) {
	soa := s.soa
	for j := w.next; j < idx; j++ {
		if d := soa.Dst[j]; d != isa.NoReg {
			w.reg[d] = noDep
		}
		if soa.Class(int(j)) == isa.Store {
			delete(w.store, soa.Addr[j]/8)
		}
	}
	w.next = idx + 1
	p1, p2, pm = noDep, noDep, noDep
	if r := soa.Src1[idx]; r != isa.NoReg {
		p1 = w.reg[r]
	}
	if r := soa.Src2[idx]; r != isa.NoReg {
		p2 = w.reg[r]
	}
	switch soa.Class(int(idx)) {
	case isa.Load:
		if p, ok := w.store[soa.Addr[idx]/8]; ok {
			pm = p
		}
	case isa.Store:
		w.store[soa.Addr[idx]/8] = int64(seq)
	}
	if d := soa.Dst[idx]; d != isa.NoReg {
		w.reg[d] = int64(seq)
	}
	return p1, p2, pm
}

// onLastWriters runs fn, which runs one simulation, with dispatch reading
// its producers from a fresh lastWriters instead of the precomputed
// dependences.
func onLastWriters(fn func()) {
	w := &lastWriters{store: map[uint64]int64{}}
	for i := range w.reg {
		w.reg[i] = noDep
	}
	depSelect = w.producers
	defer func() { depSelect = nil }()
	fn()
}

// TestRunPathsIdentical is the contract behind precomputed dependences: a
// run that reads operand and memory producers from the metadata computed at
// pack time, mapped to dispatch sequence numbers when the run
// fast-forwards, must be bit-identical to one that tracks them over what it
// dispatches (lastWriters) — every counter, stall bucket, event, record,
// timeline entry, and load level — across workloads, machines (seeded
// random ones included) and option sets, sampled ones with short,
// off-period and overflowing phases and a start skip alone included. The production side
// takes the plain-reader entry, which packs the trace on entry (behind a
// limit under MaxInsts).
func TestRunPathsIdentical(t *testing.T) {
	cfgs := map[string]Config{"baseline": Baseline()}
	small := Baseline()
	small.Name = "small"
	small.ROBSize = 48 // deliberately not a power of two: exercises slot wrap
	small.IQSize = 24
	small.FrontendDepth = 9
	cfgs["small"] = small
	for _, seed := range []uint64{0x5eed0001, 0x5eed1f2e, 0xc0ffee77} {
		c := randomMachine(seed)
		cfgs[c.Name] = c
	}
	opts := diffOptions()
	opts["sampled-7/3"] = Options{RecordEvents: true, RecordMispredicts: true, SampleDetailed: 7, SampleSkip: 3}
	opts["sampled-1+500/4473"] = Options{RecordLoadLevels: true, SampleStartSkip: 1, SampleDetailed: 500, SampleSkip: 4473}
	opts["startskip-777"] = Options{RecordMispredicts: true, SampleStartSkip: 777}
	// Phases whose period overflows uint64: the first phase never ends.
	opts["sampled-overflow"] = Options{SampleStartSkip: 3, SampleDetailed: 1 << 63, SampleSkip: 1<<63 + 1}

	for _, wname := range []string{"gzip", "mcf", "crafty"} {
		wc, ok := workload.SuiteConfig(wname)
		if !ok {
			t.Fatalf("unknown workload %s", wname)
		}
		tr, err := trace.ReadAll(workload.MustNew(wc, 40_000))
		if err != nil {
			t.Fatal(err)
		}
		soa := trace.Pack(tr)
		for cname, cfg := range cfgs {
			for oname, o := range opts {
				t.Run(wname+"/"+cname+"/"+oname, func(t *testing.T) {
					var ref *Result
					var refErr error
					onLastWriters(func() { ref, refErr = Run(soa.Reader(), cfg, o) })
					got, err := Run(tr.Reader(), cfg, o)
					sameRun(t, "last writers", ref, refErr, got, err)
					if err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

// compareResults asserts field-level equality with targeted messages before
// falling back to a whole-struct comparison, so a divergence names the first
// statistic that drifted instead of dumping two large structs. Path and
// Fallback describe which simulator path ran, not what it computed, so they
// are cleared (on copies) before the whole-struct comparison.
func compareResults(t *testing.T, want, got *Result) {
	t.Helper()
	w, g := *want, *got
	w.Path, w.Fallback = "", ""
	g.Path, g.Fallback = "", ""
	want, got = &w, &g
	scalar := []struct {
		name       string
		want, have uint64
	}{
		{"Insts", want.Insts, got.Insts},
		{"Cycles", want.Cycles, got.Cycles},
		{"Mispredicts", want.Mispredicts, got.Mispredicts},
		{"ICacheMisses", want.ICacheMisses, got.ICacheMisses},
		{"WrongPathIMisses", want.WrongPathIMisses, got.WrongPathIMisses},
		{"LongDMisses", want.LongDMisses, got.LongDMisses},
		{"ShortDMisses", want.ShortDMisses, got.ShortDMisses},
		{"LoadsExecuted", want.LoadsExecuted, got.LoadsExecuted},
	}
	for _, f := range scalar {
		if f.want != f.have {
			t.Errorf("%s: want %d, got %d", f.name, f.want, f.have)
		}
	}
	if want.Stalls != got.Stalls {
		t.Errorf("Stalls: want %+v, got %+v", want.Stalls, got.Stalls)
	}
	if want.Bpred != got.Bpred {
		t.Errorf("Bpred: want %+v, got %+v", want.Bpred, got.Bpred)
	}
	if want.Caches != got.Caches {
		t.Errorf("Caches: want %+v, got %+v", want.Caches, got.Caches)
	}
	if len(want.Events) != len(got.Events) {
		t.Errorf("Events: want %d, got %d", len(want.Events), len(got.Events))
	} else {
		for i := range want.Events {
			if want.Events[i] != got.Events[i] {
				t.Errorf("Events[%d]: want %+v, got %+v", i, want.Events[i], got.Events[i])
				break
			}
		}
	}
	if len(want.Records) != len(got.Records) {
		t.Errorf("Records: want %d, got %d", len(want.Records), len(got.Records))
	} else {
		for i := range want.Records {
			if want.Records[i] != got.Records[i] {
				t.Errorf("Records[%d]: want %+v, got %+v", i, want.Records[i], got.Records[i])
				break
			}
		}
	}
	if t.Failed() {
		return
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("results differ outside the named fields: want %+v, got %+v", want, got)
	}
}

// TestPackReaderMatchesPack pins the streaming packer to the in-memory one.
func TestPackReaderMatchesPack(t *testing.T) {
	wc, _ := workload.SuiteConfig("vpr")
	tr, err := trace.ReadAll(workload.MustNew(wc, 10_000))
	if err != nil {
		t.Fatal(err)
	}
	a := trace.Pack(tr)
	b, err := trace.PackReader(tr.Reader())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("PackReader result differs from Pack")
	}
}
