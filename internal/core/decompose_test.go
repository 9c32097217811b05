package core

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"intervalsim/internal/cache"
	"intervalsim/internal/isa"
	"intervalsim/internal/overlay"
	"intervalsim/internal/trace"
	"intervalsim/internal/uarch"
	"intervalsim/internal/workload"
)

// The reference decomposition: four independent critical-path passes per
// record, one per latency function, each with its own depth slice and
// store map. The fused kernel in Decomposer.paths must equal it bit for
// bit.

// latencyFunc assigns an execution latency to the instruction at position
// idx of the window being analyzed.
type latencyFunc func(idx int, in *isa.Inst) float64

func unitLatency(int, *isa.Inst) float64 { return 1 }

// pathDepths returns, for each instruction, the earliest completion time of
// its dependence chain, honoring register read-after-write dependences and
// store→load forwarding on exact word addresses.
func pathDepths(insts []isa.Inst, lat latencyFunc) []float64 {
	depths := make([]float64, len(insts))
	var regDepth [isa.NumRegs]float64
	storeDepth := make(map[uint64]float64)
	for i := range insts {
		in := &insts[i]
		var ready float64
		if r := in.Src1; r != isa.NoReg && regDepth[r] > ready {
			ready = regDepth[r]
		}
		if r := in.Src2; r != isa.NoReg && regDepth[r] > ready {
			ready = regDepth[r]
		}
		if in.Class == isa.Load {
			if d, ok := storeDepth[in.Addr/8]; ok && d > ready {
				ready = d
			}
		}
		d := ready + lat(i, in)
		depths[i] = d
		if in.Dst != isa.NoReg {
			regDepth[in.Dst] = d
		}
		if in.Class == isa.Store {
			storeDepth[in.Addr/8] = d
		}
	}
	return depths
}

// criticalPathTo is the depth of the last instruction of insts (0 if empty).
func criticalPathTo(insts []isa.Inst, lat latencyFunc) float64 {
	depths := pathDepths(insts, lat)
	if len(depths) == 0 {
		return 0
	}
	return depths[len(depths)-1]
}

// refLatency is the window latency function: real functional-unit latencies
// everywhere, loads at L1 load-use latency, upgraded to the L2 latency for
// observed short misses (withShort) and to memory latency for observed long
// misses (withLong). base is the trace index of the window's first record.
func refLatency(res *uarch.Result, base uint64, withShort, withLong bool) latencyFunc {
	lat := res.Config.Mem.Lat
	return func(idx int, in *isa.Inst) float64 {
		if in.Class == isa.Load {
			lvl, ok := res.LoadLevel(base + uint64(idx))
			switch {
			case ok && withShort && lvl == cache.ShortMiss:
				return float64(lat.L2)
			case ok && withLong && lvl == cache.LongMiss:
				return float64(lat.Mem)
			default:
				return float64(lat.L1)
			}
		}
		return float64(res.Config.FU.OpLatency(in.Class))
	}
}

// refPaths computes the four critical paths of rec's window in four passes.
func refPaths(insts []isa.Inst, res *uarch.Result, rec uarch.MispredictRecord) lanes {
	base := rec.OldestInROB
	window := insts[base : rec.Index+1]
	return lanes{
		unit:  criticalPathTo(window, unitLatency),
		fu:    criticalPathTo(window, refLatency(res, base, false, false)),
		short: criticalPathTo(window, refLatency(res, base, true, false)),
		long:  criticalPathTo(window, refLatency(res, base, true, true)),
	}
}

// refDecompose breaks down every complete record of res as the four-pass
// decomposer did.
func refDecompose(tr *trace.Trace, res *uarch.Result) []Breakdown {
	out := make([]Breakdown, 0, len(res.Records))
	for _, rec := range res.Records {
		if rec.Penalty() <= 0 || rec.Index >= uint64(len(tr.Insts)) {
			continue
		}
		p := refPaths(tr.Insts, res, rec)
		b := Breakdown{
			Frontend:      frontendRefill(res.Config),
			BaseILP:       p.unit,
			FULatency:     p.fu - p.unit,
			ShortDMiss:    p.short - p.fu,
			LongDMiss:     p.long - p.short,
			Total:         rec.Penalty(),
			Occupancy:     rec.Occupancy,
			SinceLastMiss: rec.SinceLastMiss,
		}
		b.Residual = b.Total - b.Frontend - p.long
		out = append(out, b)
	}
	return out
}

// checkMatchesReference fails t unless DecomposeAll of res equals the
// reference decomposition exactly.
func checkMatchesReference(t *testing.T, name string, tr *trace.Trace, res *uarch.Result) {
	t.Helper()
	d, err := NewDecomposer(tr, res)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	got, want := d.DecomposeAll(), refDecompose(tr, res)
	if len(want) == 0 {
		t.Fatalf("%s: no complete mispredict records", name)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d breakdowns, want %d", name, len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("%s: breakdown %d is %+v, want %+v", name, i, got[i], want[i])
		}
	}
}

// designPoint is the baseline machine resized to one (width, depth, ROB)
// point, as sweeps build it.
func designPoint(width, depth, rob int) uarch.Config {
	cfg := uarch.Baseline()
	cfg.Name = fmt.Sprintf("w%d-d%d-r%d", width, depth, rob)
	cfg.FetchWidth, cfg.DispatchWidth, cfg.IssueWidth, cfg.CommitWidth = width, width, width, width
	cfg.FrontendDepth, cfg.ROBSize, cfg.IQSize = depth, rob, rob/2
	cfg.FU.IntALU.Count = width
	if width > 4 {
		cfg.FU.MemPort.Count, cfg.FU.IntMul.Count = 4, 4
	}
	return cfg
}

// TestDecomposeMatchesReference pins the one-pass kernel to the four-pass
// reference: every breakdown of the 10 suite programs on a narrow shallow,
// the baseline and a wide deep machine, simulated live and replaying the
// program's overlay, and of the randomized property workloads and machines.
func TestDecomposeMatchesReference(t *testing.T) {
	cfgs := []uarch.Config{designPoint(2, 3, 64), uarch.Baseline(), designPoint(8, 11, 256)}
	opts := uarch.Options{RecordMispredicts: true, RecordLoadLevels: true, WarmupInsts: 5_000}
	for _, wc := range workload.Suite() {
		tr, err := trace.ReadAll(workload.MustNew(wc, 30_000))
		if err != nil {
			t.Fatal(err)
		}
		soa := trace.Pack(tr)
		ov, err := overlay.Compute(soa, cfgs[0].Pred, cfgs[0].Mem)
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range cfgs {
			live, err := uarch.Run(soa.Reader(), cfg, opts)
			if err != nil {
				t.Fatal(err)
			}
			checkMatchesReference(t, wc.Name+"/"+cfg.Name+"/live", tr, live)
			replayOpts := opts
			replayOpts.Overlay = ov
			replay, err := uarch.Run(soa.Reader(), cfg, replayOpts)
			if err != nil {
				t.Fatal(err)
			}
			if replay.Path != "soa+overlay" {
				t.Fatalf("%s/%s: replay took path %q (%s)", wc.Name, cfg.Name, replay.Path, replay.Fallback)
			}
			checkMatchesReference(t, wc.Name+"/"+cfg.Name+"/replay", tr, replay)
		}
	}
	for _, seed := range []uint64{1, 0x9e3779b97f4a7c15, 0x5851f42d4c957f2d, 0xdeadbeefcafef00d, 42 << 40} {
		wc := propWorkload(seed)
		if err := wc.Validate(); err != nil {
			t.Fatalf("seed %#x: %v", seed, err)
		}
		tr, err := trace.ReadAll(workload.MustNew(wc, 20_000))
		if err != nil {
			t.Fatal(err)
		}
		soa := trace.Pack(tr)
		for _, cfg := range randomConfigs(seed) {
			res, err := uarch.Run(soa.Reader(), cfg, uarch.Options{RecordMispredicts: true, RecordLoadLevels: true})
			if err != nil {
				t.Fatal(err)
			}
			checkMatchesReference(t, fmt.Sprintf("seed %#x/%s", seed, cfg.Name), tr, res)
		}
	}
}

// TestDecomposeAllocs pins the kernel's scratch reuse: decomposing a record
// again allocates nothing, and DecomposeAll allocates only its output.
func TestDecomposeAllocs(t *testing.T) {
	tr, res := runDetailed(t, testWorkload(), uarch.Baseline())
	d, err := NewDecomposer(tr, res)
	if err != nil {
		t.Fatal(err)
	}
	var rec uarch.MispredictRecord
	for _, r := range res.Records {
		if r.Penalty() > 0 && r.Occupancy > rec.Occupancy {
			rec = r
		}
	}
	if rec.Occupancy == 0 {
		t.Fatal("no complete record with a non-empty window")
	}
	if n := testing.AllocsPerRun(100, func() { d.Decompose(rec) }); n != 0 {
		t.Errorf("Decompose allocates %v times per record after its first call, want 0", n)
	}
	if n := testing.AllocsPerRun(5, func() { d.DecomposeAll() }); n != 1 {
		t.Errorf("DecomposeAll allocates %v times, want 1 (its output)", n)
	}
}

// FuzzDecompose checks the one-pass kernel against the four-pass reference
// on arbitrary windows. The input decodes into a machine (functional-unit
// and memory latencies, frontend depth and fetch rate), at most 256 valid
// records of every class over a few registers and a few colliding words,
// each load's observed cache level, and at most 64 mispredict records
// naming windows of those records. All four critical paths must equal the
// reference's bit for bit, and so must every breakdown.
func FuzzDecompose(f *testing.F) {
	f.Add([]byte{})
	// A store, a load of the same word (a short or a long miss) and a
	// branch on the load, 64 times over, then four windows.
	seed := []byte{1, 3, 19, 2, 3, 5, 7, 2, 20, 17, 3, 4, 191}
	for i := 0; i < 64; i++ {
		seed = append(seed, 0x43, 0x08, 0x05, 0x10, 0x04, 0x45+byte(i%2)*0x20, 0x44, 0x01, 0x01)
	}
	seed = append(seed, 191, 120, 64, 9, 30, 2, 2, 1, 1, 5, 100, 0, 0, 0, 3, 191, 255, 255, 0, 40)
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		cfg := uarch.Baseline()
		for _, p := range []*uarch.FUPool{&cfg.FU.IntALU, &cfg.FU.IntMul, &cfg.FU.IntDiv, &cfg.FU.FPAdd, &cfg.FU.FPMul, &cfg.FU.FPDiv, &cfg.FU.MemPort} {
			p.Latency = 1 + int(next()%64)
		}
		lat := &cfg.Mem.Lat
		lat.L1 = 1 + int(next()%8)
		lat.L2 = lat.L1 + 1 + int(next())
		lat.Mem = lat.L2 + 1 + 16*int(next())
		cfg.FrontendDepth = 1 + int(next()) // the admission bound is 256
		if r := next(); r%2 == 1 {
			cfg.FetchRate = float64(r) / 256
		}
		reg := func(b byte) int8 { // a few registers, so chains form
			if b%5 == 4 {
				return isa.NoReg
			}
			return int8(b % 5 * 15) // 0, 15, 30, 45
		}
		tr := &trace.Trace{}
		res := &uarch.Result{Config: cfg}
		n := int(next())%256 + 1
		for i := 0; i < n; i++ {
			op, regs, addr := next(), next(), next()
			in := isa.Inst{
				PC:    0x1000 + 4*uint64(i),
				Class: isa.Class(op % uint8(isa.NumClasses)),
				Src1:  reg(regs), Src2: reg(regs >> 3), Dst: reg(op >> 4),
			}
			switch {
			case in.Class.IsMem(): // four words, at any byte offset
				in.Addr = 0x8000 + uint64(addr%32)
			case in.Class.IsControl():
				in.Target, in.Taken = 0x1000, in.Class == isa.Jump || addr%2 == 1
			}
			if err := in.Validate(); err != nil {
				t.Fatalf("decoded an invalid record: %v", err)
			}
			tr.Insts = append(tr.Insts, in)
			level := uint8(0)
			if in.Class == isa.Load {
				level = addr >> 5 % 5 // none, L1 hit, short, long, or out of range
			}
			res.LoadLevels = append(res.LoadLevels, level)
		}
		for len(data) > 0 && len(res.Records) < 64 {
			last := uint64(next()) % uint64(n)
			res.Records = append(res.Records, uarch.MispredictRecord{
				Index:         last,
				OldestInROB:   last - uint64(next())%(last+1),
				Occupancy:     int(next()),
				SinceLastMiss: uint64(next()),
				DispatchCycle: 10,
				ResumeCycle:   10 + uint64(next()), // a zero byte: no penalty, skipped
			})
		}
		d, err := NewDecomposer(tr, res)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range res.Records {
			got, want := d.paths(rec.OldestInROB, rec.Index), refPaths(tr.Insts, res, rec)
			for _, l := range [][2]float64{{got.unit, want.unit}, {got.fu, want.fu}, {got.short, want.short}, {got.long, want.long}} {
				if math.Float64bits(l[0]) != math.Float64bits(l[1]) {
					t.Fatalf("record %+v: paths %+v, want %+v", rec, got, want)
				}
			}
		}
		if got, want := d.DecomposeAll(), refDecompose(tr, res); !reflect.DeepEqual(got, want) {
			t.Fatalf("breakdowns %+v, want %+v", got, want)
		}
	})
}
