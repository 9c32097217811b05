package uarch

import (
	"testing"

	"intervalsim/internal/isa"
	"intervalsim/internal/overlay"
	"intervalsim/internal/trace"
	"intervalsim/internal/vpred"
	"intervalsim/internal/workload"
)

// FuzzSimulatorReferences pins every optimization of the simulator to the
// reference it replaced, on fuzzed traces, machines and option sets:
//   - the production loop (dead cycles skipped, issue on wakeup) equals the
//     one-cycle loop issuing by the operand-polling scan, or, for
//     fast-forwarded runs, the one-cycle loop issuing on wakeup;
//   - precomputed dependences, mapped to dispatch sequence numbers when
//     the run fast-forwards, equal the last writers of what it dispatched;
//   - overlay replay equals live simulation (a run the overlay does not
//     apply to falls back to live simulation and must equal it too);
//   - every cycle either dispatched or was charged to one stall bucket.
//
// Runs that fail must fail alike, with the same error text. The input
// decodes as a trace-kind byte, fuzzMachine's bytes, fuzzOptions' bytes,
// then the trace (fuzzTrace).
func FuzzSimulatorReferences(f *testing.F) {
	for _, seed := range fuzzSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzInput(data)
		kind := in.next()
		cfg := fuzzMachine(&in)
		var ob [fuzzOptionBytes]byte
		for i := range ob {
			ob[i] = in.next()
		}
		soa, stream := fuzzTrace(t, kind, &in)
		if cfg.VPred != nil {
			cfg.VPred.Stream = stream
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("decoded an invalid machine: %v", err)
		}
		opts := fuzzOptions(ob, soa.Len())

		got, err := Run(soa.Reader(), cfg, opts)
		var ref *Result
		var refErr error
		onReference(!opts.fastForwarded(), func() { ref, refErr = Run(soa.Reader(), cfg, opts) })
		sameRun(t, "reference loop", ref, refErr, got, err)

		var live *Result
		var lerr error
		onLastWriters(func() { live, lerr = Run(soa.Reader(), cfg, opts) })
		sameRun(t, "live dependences", live, lerr, got, err)

		ov, oerr := overlay.ComputeSpec(soa, cfg.Pred, cfg.Mem, cfg.VPred)
		if oerr != nil {
			t.Fatal(oerr)
		}
		ro := opts
		ro.Overlay = ov
		rep, rerr := Run(soa.Reader(), cfg, ro)
		sameRun(t, "overlay replay", rep, rerr, got, err)

		if err == nil && opts.WarmupInsts == 0 && got.Cycles < uint64(opts.TimelineCycles) {
			checkCycleAccounting(t, got)
			checkCycleAccounting(t, ref)
		}
	})
}

// sameRun requires the production run got (with its error) to equal the
// run named what: both fail with the same text, or both succeed with equal
// results.
func sameRun(t *testing.T, what string, want *Result, wantErr error, got *Result, err error) {
	t.Helper()
	sameError(t, what, wantErr, err)
	if err == nil {
		compareResults(t, want, got)
	}
}

// fuzzInput is the undecoded rest of a fuzz input. Past its end every byte
// reads 0, which decodes to the default of the field being read.
type fuzzInput []byte

func (in *fuzzInput) next() byte {
	if len(*in) == 0 {
		return 0
	}
	b := (*in)[0]
	*in = (*in)[1:]
	return b
}

// fuzzMachine decodes a machine inside the service's admission bounds
// (internal/service/limits.go) from 28 bytes: fetch, dispatch, issue and
// commit width (1-8); frontend depth (1-255); ROB size (two bytes, 1-512);
// IQ size (1-255, at most the ROB); per FU pool a count byte (1-4 units,
// bit 2 set: not pipelined) and a latency byte (1-32); L1, L2 and memory
// latency; a flags byte (bit 0: small caches, bit 1: a small gshare
// predictor); a value-predictor preset; and a fetch rate (b/256). A zero
// byte keeps the field's baseline value (an IQ of half the ROB), and a
// width, depth, ROB or IQ byte decodes as the number it holds, so seeds
// spell machines directly.
func fuzzMachine(in *fuzzInput) Config {
	c := Baseline()
	c.Name = "fuzz"
	pick := func(v *int, max int) {
		if b := int(in.next()); b != 0 {
			*v = (b-1)%max + 1
		}
	}
	pick(&c.FetchWidth, 8)
	pick(&c.DispatchWidth, 8)
	pick(&c.IssueWidth, 8)
	pick(&c.CommitWidth, 8)
	pick(&c.FrontendDepth, 255)
	if rob := int(in.next()) | int(in.next())<<8; rob != 0 {
		c.ROBSize = (rob-1)%512 + 1
	}
	c.IQSize = max(1, c.ROBSize/2)
	pick(&c.IQSize, c.ROBSize)
	for _, p := range []*FUPool{&c.FU.IntALU, &c.FU.IntMul, &c.FU.IntDiv, &c.FU.FPAdd, &c.FU.FPMul, &c.FU.FPDiv, &c.FU.MemPort} {
		if b := in.next(); b != 0 {
			p.Count, p.Pipelined = int(b&3)+1, b&4 == 0
		}
		pick(&p.Latency, 32)
	}
	lat := &c.Mem.Lat
	if b := in.next(); b != 0 {
		lat.L1 = int(b%8) + 1
	}
	if b := in.next(); b != 0 {
		lat.L2 = lat.L1 + int(b)
	}
	if b := in.next(); b != 0 {
		lat.Mem = lat.L2 + int(b)
	}
	lat.Mem = max(lat.Mem, lat.L2+1)
	flags := in.next()
	if flags&1 != 0 {
		c.Mem.L1I.Size, c.Mem.L1D.Size, c.Mem.L2.Size = 1<<10, 1<<10, 16<<10
	}
	if flags&2 != 0 {
		c.Pred = PredictorSpec{Kind: "gshare", Entries: 1024, HistBits: 8, BTBEntries: 256}
	}
	if b := in.next(); b != 0 {
		names := vpred.PresetNames()
		vp, _ := vpred.Preset(names[int(b-1)%len(names)])
		c.VPred = &vp
	}
	if b := in.next(); b != 0 {
		c.FetchRate = float64(b) / 256
	}
	return c
}

// fuzzOptionBytes is the number of bytes fuzzOptions decodes.
const fuzzOptionBytes = 9

// fuzzTimeline is the timeline length that covers every cycle of a fuzzed
// run, so the cycle-accounting identity can be checked.
const fuzzTimeline = 1 << 20

// fuzzOptions decodes an option set for a trace of n instructions: a flags
// byte (bits 0-3: record events, mispredicts, load levels; wrong-path
// fetch); the timeline (16·b cycles, 255: every cycle); then, as b/256 of
// n, warmup, an instruction limit, the start skip, the detailed and the
// skipped sampling phases; the cycle budget (b·n/16); and the no-progress
// limit (b cycles). Zero leaves an option off.
func fuzzOptions(b [fuzzOptionBytes]byte, n int) Options {
	frac := func(b byte) uint64 { return uint64(n) * uint64(b) / 256 }
	o := Options{
		RecordEvents:      b[0]&1 != 0,
		RecordMispredicts: b[0]&2 != 0,
		RecordLoadLevels:  b[0]&4 != 0,
		WrongPathFetch:    b[0]&8 != 0,
		TimelineCycles:    16 * int(b[1]),
		WarmupInsts:       frac(b[2]),
		SampleStartSkip:   frac(b[4]),
		SampleDetailed:    frac(b[5]),
		SampleSkip:        frac(b[6]),
		MaxCycles:         uint64(b[7]) * uint64(n) / 16,
		NoProgressCycles:  uint64(b[8]),
	}
	if b[1] == 255 {
		o.TimelineCycles = fuzzTimeline
	}
	if b[3] != 0 {
		o.MaxInsts = frac(b[3]) + 1
	}
	return o
}

// fuzzTrace decodes the trace by kind%3: a suite program (its index byte)
// or a seeded random workload (eight seed bytes), of 256+16·b instructions
// (a length byte), or raw records (fuzzRecords). It returns the packed
// trace and the value stream value prediction reads.
func fuzzTrace(t *testing.T, kind byte, in *fuzzInput) (*trace.SoA, vpred.StreamConfig) {
	var wc workload.Config
	switch kind % 3 {
	case 0:
		suite := workload.Suite()
		wc = suite[int(in.next())%len(suite)]
	case 1:
		var seed uint64
		for i := 0; i < 8; i++ {
			seed |= uint64(in.next()) << (8 * i)
		}
		wc = randomWorkload(seed)
	default:
		return fuzzRecords(t, in), vpred.DefaultStream()
	}
	gen, err := workload.New(wc, 256+16*int(in.next()))
	if err != nil {
		t.Skipf("workload: %v", err)
	}
	tr, err := trace.ReadAll(gen)
	if err != nil {
		t.Fatal(err)
	}
	return trace.Pack(tr), wc.ValueStream()
}

// fuzzRecords decodes 1-256 raw records (a count byte), three bytes each.
// The first holds the class (low nibble) and the destination register; the
// second the two source registers (bits 0-2, 3-5) and one of four code
// regions 64 KB apart (bits 6-7), so fetch can miss; the third the
// address or the branch direction. Registers come from a set of four, so
// dependence chains form. A memory address with bit 7 clear is one of four
// words, so loads find earlier stores; with it set, one of 128 lines 4 KB
// apart, so loads miss. Each record must pass isa.Inst.Validate.
func fuzzRecords(t *testing.T, in *fuzzInput) *trace.SoA {
	reg := func(b byte) int8 {
		if b%5 == 4 {
			return isa.NoReg
		}
		return int8(b % 5 * 15)
	}
	n := int(in.next()) + 1
	tr := &trace.Trace{Insts: make([]isa.Inst, 0, n)}
	for i := 0; i < n; i++ {
		op, regs, arg := in.next(), in.next(), in.next()
		r := isa.Inst{
			PC:    0x1000 + 4*uint64(i) + uint64(regs>>6)<<16,
			Class: isa.Class(op & 15 % uint8(isa.NumClasses)),
			Src1:  reg(regs & 7), Src2: reg(regs >> 3 & 7), Dst: reg(op >> 4),
		}
		switch {
		case r.Class.IsMem() && arg&0x80 != 0:
			r.Addr = 0x100000 + uint64(arg&0x7f)<<12
		case r.Class.IsMem():
			r.Addr = 0x8000 + uint64(arg%32)
		case r.Class.IsControl():
			r.Target, r.Taken = 0x1000, r.Class == isa.Jump || arg&1 == 1
		}
		if err := r.Validate(); err != nil {
			t.Fatalf("decoded an invalid record: %v", err)
		}
		tr.Insts = append(tr.Insts, r)
	}
	return trace.Pack(tr)
}

// fuzzSeeds are the seed corpus, taken from the differential matrices: the
// dead-cycle skip machines (width × depth × ROB, and value prediction with
// fetch throttling) crossed, on a diagonal, with the suite programs and
// the skip gate's option sets; the seeded random machines of
// TestRunPathsIdentical; the cycle-accounting modes; and raw records.
func fuzzSeeds() [][]byte {
	const length = 111 // 256+16·111 = 2032 instructions
	machine := func(w, d, rob int, rest ...byte) []byte {
		m := []byte{byte(w), byte(w), byte(w), byte(w), byte(d), byte(rob), byte(rob >> 8), byte(rob / 2)}
		return append(append(m, make([]byte, 28-len(m)-len(rest))...), rest...)
	}
	// Option bytes: flags, timeline, warmup, limit, start skip, detailed,
	// skipped, cycle budget, no-progress limit.
	options := [][fuzzOptionBytes]byte{
		{},                             // bare
		{7, 64},                        // recorded, partial timeline
		{7, 0, 128},                    // warmup
		{2, 0, 0, 218},                 // instruction limit
		{9},                            // wrong-path fetch
		{0, 0, 0, 0, 64, 51, 77},       // sampled
		{2, 0, 0, 0, 0, 0, 0, 24},      // cycle budget
		{0, 0, 0, 0, 0, 0, 0, 0, 100},  // no-progress limit
		{0, 255},                       // identity: plain
		{8, 255},                       // identity: wrong-path fetch
		{0, 255, 0, 0, 64, 51, 77},     // identity: sampled
		{7, 255, 0, 0, 0, 0, 0, 0, 12}, // a no-progress limit below memory latency
	}
	var machines [][]byte
	for _, w := range []int{2, 4, 8} {
		for _, d := range []int{3, 11} {
			for _, rob := range []int{48, 128, 256} {
				machines = append(machines, machine(w, d, rob))
			}
		}
	}
	// Value prediction (stride, the third preset) with fetch at half rate.
	machines = append(machines, machine(4, 5, 128, 0, 3, 128))
	for _, seed := range []uint64{0x5eed0001, 0x5eed1f2e, 0xc0ffee77} {
		c := randomMachine(seed)
		machines = append(machines, machine(c.IssueWidth, c.FrontendDepth, c.ROBSize))
		machines[len(machines)-1][7] = byte(c.IQSize)
	}
	var seeds [][]byte
	for i, m := range machines {
		seed := append([]byte{0}, m...)
		seed = append(seed, options[i%len(options)][:]...)
		seeds = append(seeds, append(seed, byte(i), length))
	}
	// Raw records: a store, a load of the same word (every third time of a
	// far line), a divide on the load and a branch on the divide, over and
	// over, on a 1-wide machine with a 2-entry IQ and one unpipelined
	// divider.
	raw := append([]byte{2}, machine(1, 4, 40)...)
	raw[1+7] = 2
	raw[1+12] = 4 // IntDiv: one unit, not pipelined
	raw = append(raw, options[1][:]...)
	raw = append(raw, 255)
	for i := 0; i < 64; i++ {
		far := 0x80 * byte(i%3/2)
		raw = append(raw, 0x47, 0x08, byte(i%4), 0x16, 0x08, byte(i%4)|far, 0x32, 0x01, 0, 0x48, 0x03, byte(i%2))
	}
	// Found by the fuzzer: an 8-wide machine with a 48-stage frontend, a
	// 48-entry ROB and IQ and four unpipelined ALUs of latency 16, on the
	// first 256 instructions of gzip. Its dead cycles hold ready entries
	// blocked on their pool, which horizon must count.
	fu := append([]byte{0}, machine(8, 48, 48)...)
	fu[1+7] = 48
	fu[1+8], fu[1+9] = 7, 16 // IntALU: 4 units, not pipelined, latency 16
	return append(seeds, raw, fu, []byte{})
}
