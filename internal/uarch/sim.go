package uarch

import (
	"context"
	"fmt"
	"math"

	"intervalsim/internal/bpred"
	"intervalsim/internal/cache"
	"intervalsim/internal/isa"
	"intervalsim/internal/overlay"
	"intervalsim/internal/trace"
	"intervalsim/internal/vpred"
)

// Run simulates the instruction stream from r on the processor described by
// cfg and returns the measured result. The same reader can only be consumed
// once; generators and decoders are cheap to recreate.
//
// The simulator runs on a packed trace (trace.SoA), fetching by index with no
// per-instruction interface calls. A *trace.SoAReader positioned at the start
// of its trace (from trace.Pack + SoA.Reader) runs on that trace directly, so
// one packed trace serves every run of a sweep; any other reader is packed
// once on entry, never read past Options.MaxInsts. Unsampled runs take
// operand and memory dependences from the metadata precomputed at pack time;
// fast-forwarded runs track them live (see TestRunPathsIdentical).
func Run(r trace.Reader, cfg Config, opts Options) (*Result, error) {
	return RunContext(context.Background(), r, cfg, opts)
}

// RunContext is Run with cancellation: the simulation polls ctx periodically
// and returns an ErrCanceled-wrapped error when it is done. Combined with the
// Options watchdog fields (MaxCycles, NoProgressCycles) this bounds every run:
// a pathological configuration returns ErrWatchdog or ErrCanceled instead of
// looping forever.
func RunContext(ctx context.Context, r trace.Reader, cfg Config, opts Options) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	soa, err := soaOf(r, opts.MaxInsts)
	if err != nil {
		return nil, err
	}
	s, err := newSimulator(soa, cfg, opts)
	if err != nil {
		return nil, err
	}
	return s.run(ctx)
}

// soaOf returns the packed trace r streams: r's own when r is a packed
// reader at the start of its trace, otherwise the rest of r packed now,
// stopping after maxInsts instructions (0 = all).
func soaOf(r trace.Reader, maxInsts uint64) (*trace.SoA, error) {
	if sr, ok := r.(*trace.SoAReader); ok && sr.Pos() == 0 {
		return sr.SoA(), nil
	}
	if maxInsts > 0 && maxInsts <= math.MaxInt {
		r = trace.LimitReader(r, int(maxInsts))
	}
	return trace.PackReader(r)
}

const noDep = int64(-1)

// robEntry is one in-flight instruction. Its sequence number equals its
// dynamic trace index (dispatch order under sampling), so slot = seq %
// ROBSize. The entry carries only what the backend stages touch — deps,
// completion time, class, and address — so a slot stays within one cache
// line instead of dragging the full 40-byte isa.Inst through the scheduler.
type robEntry struct {
	dep1    int64 // producer sequence numbers, noDep if none
	dep2    int64
	depMem  int64  // youngest in-flight store to the same word (loads only)
	seq     uint64 // sequence number (= trace index when not sampling)
	doneAt  uint64
	addr    uint64 // effective address for loads/stores
	class   isa.Class
	issued  bool
	redirct bool // this is the pending mispredicted control instruction
	vpredOK bool // result correctly value-predicted: dependents need not wait
	vflush  bool // confident-wrong value prediction: flush when this issues
	lowConf bool // low-confidence branch throttling fetch until it issues
}

// fqEntry is one instruction in the frontend pipe between fetch and
// dispatch, reduced to the fields rename/dispatch reads.
type fqEntry struct {
	idx       uint64 // trace index (for precomputed dependence lookups)
	addr      uint64
	readyAt   uint64 // earliest dispatch cycle (fetch cycle + frontend depth)
	src1      int8
	src2      int8
	dst       int8
	class     isa.Class
	mispredct bool
	vpredHit  bool // confident-correct value prediction
	vpredMiss bool // confident-wrong value prediction (flush at resolve)
	lowConf   bool // low-confidence branch (variable fetch rate)
}

// counters batches the per-event statistics out of the inner loop: they live
// in the simulator (one cache-resident struct touched millions of times) and
// are flushed to the Result once at the end of the run.
type counters struct {
	mispredicts      uint64
	icacheMisses     uint64
	wrongPathIMisses uint64
	longDMisses      uint64
	shortDMisses     uint64
	loadsExecuted    uint64
	valuePredHits    uint64
	valueMisspecs    uint64
	stalls           StallCycles
}

type simulator struct {
	cfg  Config
	opts Options
	pred *bpred.Unit
	mem  *cache.Hierarchy

	// The packed trace the run fetches from by index (fetchIdx); fetch stops
	// at limit, the trace length capped by MaxInsts.
	soa   *trace.SoA
	limit uint64

	// preDeps: dependence metadata comes from the packed trace (soa.Dep*),
	// valid only when sequence numbers equal trace indices (no sampling).
	preDeps bool

	// Replay mode (Options.Overlay, validated in newSimulator): branch
	// prediction outcomes and L1I hit/miss classes come from ov instead of
	// live pred/L1I lookups. rb and rcL1I mirror the counters the live
	// structures would have accumulated — incremented at the identical
	// pipeline points, so warmup snapshots subtract identically — and stand
	// in for pred.Stats / mem.L1I.Stats in the Result.
	ov    *overlay.Overlay
	rb    bpred.Stats
	rcL1I cache.Stats

	cycle uint64

	// Reorder buffer: a preallocated ring of entries [head, tail) with
	// slot = seq % ROBSize. headSlot/tailSlot track the slots of head and
	// tail incrementally so the hot path never divides.
	rob      []robEntry
	head     uint64
	tail     uint64
	headSlot int32
	tailSlot int32
	robSize  int32
	unissued int // issue-queue occupancy

	// Unissued entries as a singly linked list of ROB slots in sequence
	// order: issue visits exactly the instructions still waiting instead of
	// rescanning the whole window every cycle.
	unissuedHead int32
	unissuedTail int32
	unissuedNext []int32

	// Live dependence tracking, used only when preDeps is false: sequence
	// numbers of fast-forwarded runs are dispatch slots, not trace indices.
	regProducer [isa.NumRegs]int64
	storeProd   map[uint64]uint64 // word address → youngest pending store seq

	fus [numPools][]uint64 // per pool, per unit: first cycle it can accept

	// Per-class execution latency and pool index, resolved from the config
	// once so the issue loop is pure table lookups.
	latByClass  [isa.NumClasses]uint64
	poolByClass [isa.NumClasses]uint8
	pipelined   [numPools]bool

	// Frontend queue: a preallocated ring of fqCap entries.
	fq     []fqEntry
	fqHead int32
	fqLen  int32

	fetchIdx      uint64 // trace index of the next instruction to fetch
	lineMask      uint64 // I-cache line mask, hoisted out of fetch
	curFetchLine  uint64
	haveFetchLine bool
	fetchResumeAt uint64 // fetch blocked until this cycle (I-miss or redirect)
	awaitResolve  bool   // fetch blocked until the pending mispredict issues

	// Value prediction (Config.VPred): the live runner drives the stream and
	// tables at fetch in program order; nil in replay mode, where outcomes
	// come from the overlay's bits 6/7 instead.
	vrun *vpred.Runner

	// Variable fetch rate (Config.FetchRate in (0,1)): a JRS-style
	// confidence estimator classifies each conditional branch at fetch, and
	// while any low-confidence branch is in flight the frontend fetches at
	// throttledWidth instead of FetchWidth. Both nil/zero when disabled.
	conf           *confEstimator
	throttledWidth int
	lowConfOut     int // low-confidence branches fetched but not yet issued

	lastMissIdx   uint64 // trace index of the most recent miss event
	pendingResume int    // index into res.Records awaiting ResumeCycle; -1 none

	// Sampled simulation state: instructions left in the current phase.
	detailedPhase bool
	phaseLeft     uint64
	startSkipped  bool

	// Wrong-path fetch state (Options.WrongPathFetch).
	wrongActive bool
	wrongPC     uint64
	wrongLine   uint64
	haveWrong   bool

	committed      uint64
	lastCommitTick uint64
	warm           *warmSnapshot

	// The no-progress watchdog limit, resolved once by run so step() stays
	// branchless on the Options default.
	noProgress uint64

	// skipped counts the cycles skipDead jumped over; tests read it to check
	// that the skip engages.
	skipped uint64

	// Sampling measurement units: one entry per completed detailed phase,
	// recorded at the detailed→skip boundary. unitBase holds the statistics
	// snapshot at the previous boundary, so each unit is a clean delta.
	units    []sampleUnit
	unitBase sampleUnit

	c   counters
	res *Result
}

// sampleUnit is the statistics delta covered by one detailed sampling phase.
// When used as unitBase it holds absolute snapshots instead of deltas.
type sampleUnit struct {
	insts       uint64
	cycles      uint64
	mispredicts uint64
	longDMisses uint64
}

func newSimulator(soa *trace.SoA, cfg Config, opts Options) (*simulator, error) {
	pred, err := cfg.Pred.Build()
	if err != nil {
		return nil, err
	}
	fqCap := cfg.FetchWidth * (cfg.FrontendDepth + 2)
	s := &simulator{
		cfg:           cfg,
		opts:          opts,
		pred:          pred,
		mem:           cache.NewHierarchy(cfg.Mem),
		soa:           soa,
		limit:         uint64(soa.Len()),
		rob:           make([]robEntry, cfg.ROBSize),
		robSize:       int32(cfg.ROBSize),
		unissuedHead:  -1,
		unissuedTail:  -1,
		unissuedNext:  make([]int32, cfg.ROBSize),
		fq:            make([]fqEntry, fqCap),
		pendingResume: -1,
		res:           &Result{Config: cfg, Path: "soa"},
	}
	s.lineMask = ^uint64(s.mem.LineSizeI() - 1)
	if opts.MaxInsts > 0 && opts.MaxInsts < s.limit {
		s.limit = opts.MaxInsts
	}
	// Precomputed dependences require sequence numbers to equal trace
	// indices, which fast-forwarding breaks (skipped instructions never get
	// a seq).
	s.preDeps = !opts.fastForwarded()
	if !s.preDeps {
		s.noteFallback("sampled run: precomputed dependences bypassed (live tracking)")
	}
	if ov := opts.Overlay; ov != nil {
		// Replay only when the overlay provably applies; otherwise fall back
		// to live simulation and say why.
		switch {
		case !s.preDeps:
			s.noteFallback("overlay ignored: sampled/fast-forwarded run")
		case opts.WrongPathFetch:
			s.noteFallback("overlay ignored: wrong-path fetch needs live L1I state")
		case ov.Trace != soa:
			s.noteFallback("overlay ignored: computed for a different trace")
		case ov.PredFP != cfg.Pred.Fingerprint() || ov.MemFP != cfg.Mem.Fingerprint():
			s.noteFallback("overlay ignored: predictor/cache-geometry fingerprint mismatch")
		case ov.VPredFP != vpredFingerprint(cfg.VPred):
			s.noteFallback("overlay ignored: value-predictor fingerprint mismatch")
		default:
			s.ov = ov
			s.res.Path = "soa+overlay"
		}
	}
	if cfg.VPred != nil && s.ov == nil {
		// Live value prediction; in replay mode the outcomes come from the
		// overlay bits and the runner is never built.
		vr, err := vpred.NewRunner(*cfg.VPred)
		if err != nil {
			return nil, err
		}
		s.vrun = vr
	}
	if fr := cfg.FetchRate; fr > 0 && fr < 1 {
		s.conf = newConfEstimator()
		w := int(fr*float64(cfg.FetchWidth) + 0.5)
		if w < 1 {
			w = 1
		}
		s.throttledWidth = w
	}
	pools := cfg.FU.pools()
	for p := range s.fus {
		s.fus[p] = make([]uint64, pools[p].Count)
		s.pipelined[p] = pools[p].Pipelined
	}
	for c := isa.Class(0); c < isa.NumClasses; c++ {
		s.latByClass[c] = uint64(cfg.FU.OpLatency(c))
		s.poolByClass[c] = uint8(poolFor(c))
	}
	if opts.TimelineCycles > 0 {
		s.res.Timeline = make([]uint8, 0, opts.TimelineCycles)
	}
	if opts.RecordLoadLevels {
		// Capacity only: issue grows the length to the highest load index.
		s.res.LoadLevels = make([]uint8, 0, s.limit)
	}
	if opts.sampling() {
		s.detailedPhase = true
		s.phaseLeft = opts.SampleDetailed
	}
	if opts.fastForwarded() {
		s.res.Sampled = true
	}
	return s, nil
}

// noteFallback appends one bypassed-fast-path reason to the Result.
func (s *simulator) noteFallback(reason string) {
	if s.res.Fallback != "" {
		s.res.Fallback += "; "
	}
	s.res.Fallback += reason
}

// bpredStats returns the prediction counters of the run: the replayed ones
// in overlay mode (the live unit is never consulted there), the unit's
// otherwise.
func (s *simulator) bpredStats() bpred.Stats {
	if s.ov != nil {
		return s.rb
	}
	return s.pred.Stats
}

// cacheStats returns the hierarchy counters of the run; in overlay mode the
// L1I counters are the replayed ones (L1D and L2 are always live).
func (s *simulator) cacheStats() CacheStats {
	l1i := s.mem.L1I.Stats
	if s.ov != nil {
		l1i = s.rcL1I
	}
	return CacheStats{L1I: l1i, L1D: s.mem.L1D.Stats, L2: s.mem.L2.Stats}
}

// ctxPollMask sets how often the simulation loop polls its context: every
// ctxPollMask+1 cycles, cheap enough to be invisible in profiles.
const ctxPollMask = 0x3ff

// skipDeadCycles lets step jump over dead cycles (see skipDead). Only tests
// clear it, to run the one-cycle-at-a-time reference loop the skip must
// reproduce exactly.
var skipDeadCycles = true

func (s *simulator) run(ctx context.Context) (*Result, error) {
	s.noProgress = s.opts.NoProgressCycles
	if s.noProgress == 0 {
		s.noProgress = 1_000_000
	}
	if !s.preDeps {
		// Live dependence tracking starts with no producer in flight.
		for i := range s.regProducer {
			s.regProducer[i] = noDep
		}
		s.storeProd = make(map[uint64]uint64)
	}
	for {
		done, err := s.step(ctx)
		if err != nil {
			return nil, err
		}
		if done {
			break
		}
	}
	return s.finalize(), nil
}

// step advances the simulation by one cycle (commit → issue → dispatch →
// fetch, with the watchdog and cancellation checks of a full run) and, when
// that cycle was dead, on over the dead cycles behind it (skipDead). It
// reports whether the run is complete.
func (s *simulator) step(ctx context.Context) (bool, error) {
	if s.fetchIdx >= s.limit && s.fqLen == 0 && s.head == s.tail {
		return true, nil
	}
	s.cycle++
	// The frontend state a dead cycle leaves unchanged (see skipDead).
	fetchIdx, resumeAt, await := s.fetchIdx, s.fetchResumeAt, s.awaitResolve
	phase, started, wrong := s.detailedPhase, s.startSkipped, s.wrongActive
	moved := s.commit() + s.issue()
	stall := s.dispatch()
	if err := s.fetch(); err != nil {
		return false, err
	}
	if s.opts.MaxCycles > 0 && s.cycle >= s.opts.MaxCycles {
		return false, fmt.Errorf("%w: %s: cycle budget %d exhausted (%d insts committed)",
			ErrWatchdog, s.cfg.Name, s.opts.MaxCycles, s.committed)
	}
	if s.cycle-s.lastCommitTick > s.noProgress {
		return false, fmt.Errorf("%w: %s: no commit in %d cycles at cycle %d (likely a model deadlock)",
			ErrWatchdog, s.cfg.Name, s.noProgress, s.cycle)
	}
	if s.cycle&ctxPollMask == 0 {
		if err := ctx.Err(); err != nil {
			return false, fmt.Errorf("%w: %s: at cycle %d: %v", ErrCanceled, s.cfg.Name, s.cycle, err)
		}
	}
	if moved == 0 && stall != nil && !wrong && skipDeadCycles &&
		s.fetchIdx == fetchIdx && s.fetchResumeAt == resumeAt && s.awaitResolve == await &&
		s.detailedPhase == phase && s.startSkipped == started {
		s.skipDead(stall)
	}
	return false, nil
}

// skipDead jumps over the dead cycles that follow the dead cycle just
// simulated. A cycle is dead when it committed, issued, dispatched and
// fetched nothing, left fetchResumeAt, awaitResolve and the sampling phase
// flags unchanged, and ran no wrong-path fetch (which touches the I-cache
// every cycle). The machine then stays frozen until its next event horizon
// h: every cycle before h would repeat this one — no stage acts, dispatch
// charges the same stall bucket (each bucket's condition changes only at a
// commit, an issue, a dispatch or a horizon), and the timeline records a
// zero. So the span is charged in one addition and the clock jumps to h−1;
// the next step simulates h. The jump never passes a cycle on which step
// would report something — the MaxCycles budget, the no-progress limit, the
// next context poll — so errors name the same cycles as the one-cycle loop.
func (s *simulator) skipDead(stall *uint64) {
	now := s.cycle
	to := now | ctxPollMask // the next poll is on to+1
	if m := s.opts.MaxCycles; m > 0 {
		to = min(to, m-1)
	}
	if lim := s.lastCommitTick + s.noProgress; lim >= s.lastCommitTick { // else overflowed: no limit
		to = min(to, lim)
	}
	if to <= now {
		return
	}
	h := s.horizon()
	if h == math.MaxUint64 {
		return // nothing can wake the machine: leave it to the watchdog
	}
	if to = min(to, h-1); to <= now {
		return
	}
	span := to - now
	*stall += span
	if room := s.opts.TimelineCycles - len(s.res.Timeline); room > 0 {
		s.res.Timeline = append(s.res.Timeline, make([]uint8, min(uint64(room), span))...)
	}
	s.skipped += span
	s.cycle = to
}

// horizon returns the earliest cycle after the current one at which a dead
// machine can change: the ROB head completing, an unissued instruction
// becoming issuable (wakeAt), the frontend-queue head reaching dispatch, or
// fetch resuming. It returns math.MaxUint64 when there is no such cycle.
func (s *simulator) horizon() uint64 {
	now := s.cycle
	h := uint64(math.MaxUint64)
	at := func(t uint64) {
		if t > now && t < h {
			h = t
		}
	}
	if s.head < s.tail {
		at(s.rob[s.headSlot].doneAt) // 0 while the head is unissued
	}
	if s.fqLen > 0 {
		at(s.fq[s.fqHead].readyAt)
	}
	if !s.awaitResolve {
		at(s.fetchResumeAt)
	}
	// now+1 is the earliest horizon there can be: stop once it is found.
	for slot := s.unissuedHead; slot >= 0 && h > now+1; slot = s.unissuedNext[slot] {
		at(s.wakeAt(&s.rob[slot]))
	}
	return h
}

// wakeAt returns the cycle at which the unissued entry e can next try to
// issue: when the first operand it still waits on is produced or, with all
// operands ready, when a unit of its pool frees up. It returns 0 when that
// operand's producer has not issued yet: the producer's own issue, a live
// cycle, comes first.
func (s *simulator) wakeAt(e *robEntry) uint64 {
	for _, dep := range [...]int64{e.dep1, e.dep2, e.depMem} {
		if dep < 0 || s.depReady(dep) {
			continue
		}
		if p := &s.rob[s.robSlot(uint64(dep))]; p.issued {
			return p.doneAt
		}
		return 0
	}
	t := uint64(math.MaxUint64)
	for _, freeAt := range s.fus[s.poolByClass[e.class]] {
		t = min(t, freeAt)
	}
	return t
}

// finalize assembles the Result after the last step reported completion.
func (s *simulator) finalize() *Result {
	s.res.Insts = s.committed
	s.res.Cycles = s.cycle
	s.flushCounters()
	s.res.Bpred = s.bpredStats()
	s.res.Caches = s.cacheStats()
	s.subtractWarmup()
	s.finishSampling()
	return s.res
}

// flushCounters moves the batched statistics into the Result.
func (s *simulator) flushCounters() {
	s.res.Mispredicts = s.c.mispredicts
	s.res.ICacheMisses = s.c.icacheMisses
	s.res.WrongPathIMisses = s.c.wrongPathIMisses
	s.res.LongDMisses = s.c.longDMisses
	s.res.ShortDMisses = s.c.shortDMisses
	s.res.LoadsExecuted = s.c.loadsExecuted
	s.res.ValuePredHits = s.c.valuePredHits
	s.res.ValueMisspecs = s.c.valueMisspecs
	s.res.Stalls = s.c.stalls
}

// subtractWarmup removes the pre-warmup epoch from every reported statistic.
func (s *simulator) subtractWarmup() {
	if s.opts.WarmupInsts == 0 || s.warm == nil {
		return
	}
	w := s.warm
	r := s.res
	r.Insts -= w.insts
	r.Cycles -= w.cycles
	r.Mispredicts -= w.mispredicts
	r.ICacheMisses -= w.icacheMisses
	r.LongDMisses -= w.longDMisses
	r.ShortDMisses -= w.shortDMisses
	r.LoadsExecuted -= w.loads
	r.ValuePredHits -= w.valuePredHits
	r.ValueMisspecs -= w.valueMisspecs
	r.Bpred.Branches -= w.bpred.Branches
	r.Bpred.Jumps -= w.bpred.Jumps
	r.Bpred.DirMispredict -= w.bpred.DirMispredict
	r.Bpred.BTBMispredict -= w.bpred.BTBMispredict
	r.Caches.L1I = subStats(r.Caches.L1I, w.caches.L1I)
	r.Caches.L1D = subStats(r.Caches.L1D, w.caches.L1D)
	r.Caches.L2 = subStats(r.Caches.L2, w.caches.L2)
	r.Stalls.BranchResolve -= w.stalls.BranchResolve
	r.Stalls.Refill -= w.stalls.Refill
	r.Stalls.ICacheMiss -= w.stalls.ICacheMiss
	r.Stalls.ROBFull -= w.stalls.ROBFull
	r.Stalls.IQFull -= w.stalls.IQFull
	r.Stalls.Other -= w.stalls.Other
	if w.events <= len(r.Events) {
		r.Events = r.Events[w.events:]
	}
	if w.records <= len(r.Records) {
		r.Records = r.Records[w.records:]
	}
}

// warmSnapshot freezes statistics at the warmup boundary.
type warmSnapshot struct {
	insts, cycles uint64
	mispredicts   uint64
	icacheMisses  uint64
	longDMisses   uint64
	shortDMisses  uint64
	loads         uint64
	valuePredHits uint64
	valueMisspecs uint64
	bpred         bpred.Stats
	caches        CacheStats
	stalls        StallCycles
	events        int
	records       int
}

func (s *simulator) takeWarmSnapshot() {
	s.warm = &warmSnapshot{
		insts:         s.committed,
		cycles:        s.cycle,
		mispredicts:   s.c.mispredicts,
		icacheMisses:  s.c.icacheMisses,
		longDMisses:   s.c.longDMisses,
		shortDMisses:  s.c.shortDMisses,
		loads:         s.c.loadsExecuted,
		valuePredHits: s.c.valuePredHits,
		valueMisspecs: s.c.valueMisspecs,
		bpred:         s.bpredStats(),
		caches:        s.cacheStats(),
		stalls:        s.c.stalls,
		events:        len(s.res.Events),
		records:       len(s.res.Records),
	}
}

func subStats(a, b cache.Stats) cache.Stats {
	return cache.Stats{Accesses: a.Accesses - b.Accesses, Misses: a.Misses - b.Misses}
}

// commit retires up to CommitWidth completed instructions from the ROB head
// and returns how many it retired.
func (s *simulator) commit() int {
	n := 0
	for s.head < s.tail && n < s.cfg.CommitWidth {
		e := &s.rob[s.headSlot]
		if !e.issued || e.doneAt > s.cycle {
			break
		}
		if !s.preDeps && e.class == isa.Store {
			w := e.addr / 8
			if seq, ok := s.storeProd[w]; ok && seq == s.head {
				delete(s.storeProd, w)
			}
		}
		s.head++
		if s.headSlot++; s.headSlot == s.robSize {
			s.headSlot = 0
		}
		s.committed++
		s.lastCommitTick = s.cycle
		n++
		if s.opts.WarmupInsts > 0 && s.warm == nil && s.committed >= s.opts.WarmupInsts {
			s.takeWarmSnapshot()
		}
	}
	return n
}

// robSlot returns the ROB slot of the in-flight sequence number seq.
// In-flight entries sit within ROBSize of head, so the slot derives from the
// head slot without dividing.
func (s *simulator) robSlot(seq uint64) int32 {
	slot := s.headSlot + int32(seq-s.head)
	if slot >= s.robSize {
		slot -= s.robSize
	}
	return slot
}

// depReady reports whether the producer with sequence number dep has its
// result available at the current cycle.
func (s *simulator) depReady(dep int64) bool {
	if dep < 0 || uint64(dep) < s.head {
		return true // no dependence, or producer already committed
	}
	e := &s.rob[s.robSlot(uint64(dep))]
	if e.vpredOK {
		// Correctly value-predicted producer: its result was available at
		// dispatch, so consumers never wait on it.
		return true
	}
	return e.issued && e.doneAt <= s.cycle
}

// issue sends up to IssueWidth ready instructions to free functional units
// and returns how many it issued.
func (s *simulator) issue() int {
	issued := 0
	prev := int32(-1)
	for slot := s.unissuedHead; slot >= 0 && issued < s.cfg.IssueWidth; {
		e := &s.rob[slot]
		next := s.unissuedNext[slot]
		// A ready producer stays ready, so a satisfied dependence is cleared
		// in place: entries blocked on one long-pole producer stop
		// re-checking the others every cycle.
		if e.dep1 >= 0 {
			if !s.depReady(e.dep1) {
				prev, slot = slot, next
				continue
			}
			e.dep1 = noDep
		}
		if e.dep2 >= 0 {
			if !s.depReady(e.dep2) {
				prev, slot = slot, next
				continue
			}
			e.dep2 = noDep
		}
		if e.depMem >= 0 {
			if !s.depReady(e.depMem) {
				prev, slot = slot, next
				continue
			}
			e.depMem = noDep
		}
		pool := s.poolByClass[e.class]
		unit := -1
		for u, freeAt := range s.fus[pool] {
			if freeAt <= s.cycle {
				unit = u
				break
			}
		}
		if unit < 0 {
			prev, slot = slot, next
			continue // structural hazard
		}
		lat := s.latByClass[e.class]
		switch e.class {
		case isa.Load:
			lvl, l := s.mem.Data(e.addr)
			lat = uint64(l)
			s.c.loadsExecuted++
			if s.opts.RecordLoadLevels {
				for uint64(len(s.res.LoadLevels)) <= e.seq {
					s.res.LoadLevels = append(s.res.LoadLevels, 0)
				}
				s.res.LoadLevels[e.seq] = uint8(lvl) + 1
			}
			switch lvl {
			case cache.ShortMiss:
				s.c.shortDMisses++
			case cache.LongMiss:
				s.c.longDMisses++
				s.event(EvLongDMiss, e.seq, lvl)
			}
		case isa.Store:
			s.mem.Data(e.addr) // allocate + stats; retires via store buffer
		}
		e.doneAt = s.cycle + lat
		e.issued = true
		s.unissued--
		if s.pipelined[pool] {
			s.fus[pool][unit] = s.cycle + 1
		} else {
			s.fus[pool][unit] = e.doneAt
		}
		if e.redirct || e.vflush {
			// The mispredicted control instruction — or the value-
			// misspeculated producer — resolves: fetch restarts down the
			// correct path when it completes. Value flushes never touch the
			// pending MispredictRecord; that bookkeeping belongs to the last
			// branch alone.
			s.awaitResolve = false
			s.fetchResumeAt = e.doneAt
			if e.redirct && s.pendingResume >= 0 && s.opts.RecordMispredicts {
				rec := &s.res.Records[s.pendingResume]
				rec.IssueCycle = s.cycle
				rec.ResolveCycle = e.doneAt
			}
		}
		if e.lowConf {
			s.lowConfOut--
		}
		issued++
		// Unlink the issued entry; prev stays put.
		if prev >= 0 {
			s.unissuedNext[prev] = next
		} else {
			s.unissuedHead = next
		}
		if next < 0 {
			s.unissuedTail = prev
		}
		slot = next
	}
	return issued
}

// dispatch moves up to DispatchWidth instructions from the frontend queue
// into the ROB. A cycle that dispatches nothing is charged to exactly one
// stall bucket, which dispatch returns; it returns nil when it dispatched.
func (s *simulator) dispatch() *uint64 {
	n := 0
	var stall *uint64
	rob := uint64(s.cfg.ROBSize)
	for n < s.cfg.DispatchWidth && s.fqLen > 0 {
		f := &s.fq[s.fqHead]
		if f.readyAt > s.cycle {
			if n == 0 {
				stall = &s.c.stalls.Refill
			}
			break
		}
		if s.tail-s.head >= rob {
			if n == 0 {
				stall = &s.c.stalls.ROBFull
			}
			break
		}
		if s.unissued >= s.cfg.IQSize {
			if n == 0 {
				stall = &s.c.stalls.IQFull
			}
			break
		}
		seq := s.tail
		slot := s.tailSlot
		e := &s.rob[slot]
		*e = robEntry{seq: seq, addr: f.addr, class: f.class, dep1: noDep, dep2: noDep, depMem: noDep}
		if s.preDeps {
			// Dependence metadata was computed once at pack time; sequence
			// numbers equal trace indices here, so the indices line up.
			e.dep1 = int64(s.soa.Dep1[f.idx])
			e.dep2 = int64(s.soa.Dep2[f.idx])
			e.depMem = int64(s.soa.DepMem[f.idx])
		} else {
			if r := f.src1; r != isa.NoReg {
				e.dep1 = s.producerOf(r)
			}
			if r := f.src2; r != isa.NoReg {
				e.dep2 = s.producerOf(r)
			}
			switch f.class {
			case isa.Load:
				if p, ok := s.storeProd[f.addr/8]; ok {
					e.depMem = int64(p)
				}
			case isa.Store:
				s.storeProd[f.addr/8] = seq
			}
			if d := f.dst; d != isa.NoReg {
				s.regProducer[d] = int64(seq)
			}
		}

		// Close out the previous misprediction's penalty window: the first
		// instruction dispatched after the mispredicted branch is the first
		// correct-path instruction past the redirect (it may itself be
		// another mispredicted branch).
		if s.pendingResume >= 0 {
			if s.opts.RecordMispredicts {
				s.res.Records[s.pendingResume].ResumeCycle = s.cycle
			}
			s.pendingResume = -1
		}

		if f.mispredct {
			e.redirct = true
			s.c.mispredicts++
			s.event(EvBranchMispredict, seq, cache.L1Hit)
			if s.opts.RecordMispredicts {
				s.res.Records = append(s.res.Records, MispredictRecord{
					Index:         seq,
					OldestInROB:   s.head,
					Occupancy:     int(seq - s.head),
					SinceLastMiss: seq - minU64(s.lastMissIdx, seq),
					DispatchCycle: s.cycle,
				})
				s.pendingResume = len(s.res.Records) - 1
			} else {
				s.pendingResume = 0 // sentinel so the next dispatch clears it
			}
			s.lastMissIdx = seq
		}
		if f.vpredHit {
			e.vpredOK = true
			s.c.valuePredHits++
		}
		if f.vpredMiss {
			// Confident-wrong value prediction: the flush is charged when the
			// misspeculated producer resolves (issue sets fetchResumeAt), the
			// same shape as a branch redirect but with no MispredictRecord —
			// that stream stays branches-only for the decomposition.
			e.vflush = true
			s.c.valueMisspecs++
			s.event(EvValueMisspec, seq, cache.L1Hit)
			s.lastMissIdx = seq
		}
		if f.lowConf {
			e.lowConf = true
		}

		if s.fqHead++; s.fqHead == int32(len(s.fq)) {
			s.fqHead = 0
		}
		s.fqLen--
		s.tail++
		if s.tailSlot++; s.tailSlot == s.robSize {
			s.tailSlot = 0
		}
		s.unissued++
		// Append to the unissued list (slots arrive in sequence order).
		s.unissuedNext[slot] = -1
		if s.unissuedTail >= 0 {
			s.unissuedNext[s.unissuedTail] = slot
		} else {
			s.unissuedHead = slot
		}
		s.unissuedTail = slot
		n++
	}
	if n == 0 && s.fqLen == 0 {
		switch {
		case s.awaitResolve:
			stall = &s.c.stalls.BranchResolve
		case s.cycle < s.fetchResumeAt:
			stall = &s.c.stalls.ICacheMiss
		default:
			stall = &s.c.stalls.Other
		}
	}
	if stall != nil {
		*stall++
	}
	if s.opts.TimelineCycles > 0 && len(s.res.Timeline) < s.opts.TimelineCycles {
		s.res.Timeline = append(s.res.Timeline, uint8(n))
	}
	return stall
}

// producerOf returns the pending producer of register r, or noDep.
func (s *simulator) producerOf(r int8) int64 {
	p := s.regProducer[r]
	if p == noDep || uint64(p) < s.head {
		return noDep
	}
	return p
}

func (s *simulator) fetch() error {
	if s.ov != nil {
		return s.fetchReplay()
	}
	if s.awaitResolve || s.cycle < s.fetchResumeAt {
		if s.wrongActive {
			s.fetchWrongPath()
		}
		return nil
	}
	s.wrongActive = false
	if n := s.opts.SampleStartSkip; n > 0 && !s.startSkipped {
		// Initial fast-forward past the cold-start region.
		s.startSkipped = true
		s.skipFunctional(n)
	}
	if s.opts.sampling() && !s.detailedPhase {
		// Fast-forward: warm the caches and predictor functionally, no
		// timing. The backend keeps draining the last detailed phase.
		s.skipFunctional(s.opts.SampleSkip)
		s.detailedPhase = true
		s.phaseLeft = s.opts.SampleDetailed
	}
	fqCap := int32(len(s.fq))
	n := 0
	var inst isa.Inst
	for n < s.fetchWidth() && s.fqLen < fqCap && s.fetchIdx < s.limit {
		idx := s.fetchIdx
		s.soa.InstAt(int(idx), &inst)
		line := inst.PC & s.lineMask
		if !s.haveFetchLine || line != s.curFetchLine {
			lvl, lat := s.mem.Fetch(inst.PC)
			s.curFetchLine = line
			s.haveFetchLine = true
			if lvl != cache.L1Hit {
				// The line is being filled; fetch resumes when it arrives.
				// Events index dispatch order, so the miss takes the slot
				// this instruction will dispatch into: its trace index
				// unless the run fast-forwards.
				seq := s.tail + uint64(s.fqLen)
				s.c.icacheMisses++
				s.event(EvICacheMiss, seq, lvl)
				s.lastMissIdx = seq
				s.fetchResumeAt = s.cycle + uint64(lat)
				return nil
			}
		}
		s.fetchIdx++
		if s.opts.sampling() {
			s.phaseLeft--
			if s.phaseLeft == 0 {
				s.detailedPhase = false
				s.phaseLeft = s.opts.SampleSkip
				s.markUnitBoundary()
			}
		}
		entry := fqEntry{
			idx:     idx,
			addr:    inst.Addr,
			readyAt: s.cycle + uint64(s.cfg.FrontendDepth),
			src1:    inst.Src1,
			src2:    inst.Src2,
			dst:     inst.Dst,
			class:   inst.Class,
		}
		if inst.Class.IsControl() {
			mis := s.pred.Access(&inst)
			if s.conf != nil && inst.Class == isa.Branch && s.conf.access(inst.PC, mis) {
				entry.lowConf = true
				s.lowConfOut++
			}
			if mis {
				entry.mispredct = true
				s.fqPush(entry)
				// Wrong path ahead: no useful fetch until resolution.
				s.awaitResolve = true
				if s.opts.WrongPathFetch {
					s.wrongActive = true
					s.haveWrong = false
					if inst.Class == isa.Branch && !inst.Taken {
						// Predicted taken (or misfetched): the frontend went
						// to the branch target.
						s.wrongPC = inst.Target
					} else {
						// Predicted not-taken: the frontend fell through.
						s.wrongPC = inst.PC + 4
					}
				}
				return nil
			}
			s.fqPush(entry)
			n++
			if inst.Taken || inst.Class == isa.Jump {
				// Fetch break: a taken transfer ends the fetch group.
				return nil
			}
			continue
		}
		if s.vrun != nil && overlay.VPredEligible(inst.Class, inst.Dst) {
			switch s.vrun.Access(inst.PC) {
			case vpred.Hit:
				entry.vpredHit = true
			case vpred.Miss:
				entry.vpredMiss = true
				s.fqPush(entry)
				// Everything younger is down the misspeculated path: no
				// useful fetch until the producer resolves and flushes.
				s.awaitResolve = true
				return nil
			}
		}
		s.fqPush(entry)
		n++
	}
	return nil
}

// fetchWidth returns this cycle's fetch bandwidth: the configured width,
// throttled while any low-confidence branch is outstanding under a variable
// fetch-rate configuration (Ramachandran & Johnson).
func (s *simulator) fetchWidth() int {
	if s.throttledWidth > 0 && s.lowConfOut > 0 {
		return s.throttledWidth
	}
	return s.cfg.FetchWidth
}

// fetchReplay is the fetch stage of replay mode: the same control flow as
// fetch(), with the branch predictor and the L1 instruction cache replaced
// by the precomputed overlay. A replayed L1I miss still drives the live L2
// with the instruction's PC — the identical fill stream a live L1I miss
// would send — so the L2 state shared with the data side evolves exactly as
// in a live run. Sampling and wrong-path fetch never reach here
// (newSimulator falls back to live simulation for both).
func (s *simulator) fetchReplay() error {
	if s.awaitResolve || s.cycle < s.fetchResumeAt {
		return nil
	}
	soa := s.soa
	fqCap := int32(len(s.fq))
	n := 0
	for n < s.fetchWidth() && s.fqLen < fqCap {
		idx := s.fetchIdx
		if idx >= s.limit {
			return nil
		}
		pc := soa.PC[idx]
		if line := pc & s.lineMask; !s.haveFetchLine || line != s.curFetchLine {
			// Same line tracking as live fetch, so the access points — and
			// the dedup of an access resumed after a miss — line up with the
			// overlay pre-pass by construction.
			s.curFetchLine = line
			s.haveFetchLine = true
			ic := (s.ov.Code[idx] & overlay.IMask) >> overlay.IShift
			if ic == 0 {
				return fmt.Errorf("uarch: overlay has no I-fetch outcome at index %d (line-crossing mismatch)", idx)
			}
			s.rcL1I.Accesses++
			if lvl := cache.Level(ic - 1); lvl != cache.L1Hit {
				s.rcL1I.Misses++
				s.mem.L2.Access(pc)
				lat := s.mem.Lat.L2
				if lvl == cache.LongMiss {
					lat = s.mem.Lat.Mem
				}
				s.c.icacheMisses++
				s.event(EvICacheMiss, idx, lvl)
				s.lastMissIdx = idx
				s.fetchResumeAt = s.cycle + uint64(lat)
				return nil
			}
		}
		meta := soa.Meta[idx]
		class := isa.Class(meta & trace.MetaClassMask)
		s.fetchIdx = idx + 1
		// Replay runs always use precomputed dependences, so dispatch never
		// reads the register fields; the entry carries only what it needs.
		entry := fqEntry{
			idx:     idx,
			addr:    soa.Addr[idx],
			readyAt: s.cycle + uint64(s.cfg.FrontendDepth),
			class:   class,
		}
		if class.IsControl() {
			code := s.ov.Code[idx]
			if class == isa.Branch {
				s.rb.Branches++
			} else {
				s.rb.Jumps++
			}
			mis := code&overlay.AnyMiss != 0
			if s.conf != nil && class == isa.Branch && s.conf.access(pc, mis) {
				entry.lowConf = true
				s.lowConfOut++
			}
			if mis {
				if code&overlay.DirMiss != 0 {
					s.rb.DirMispredict++
				} else {
					s.rb.BTBMispredict++
				}
				entry.mispredct = true
				s.fqPush(entry)
				// Wrong path ahead: no useful fetch until resolution.
				s.awaitResolve = true
				return nil
			}
			s.fqPush(entry)
			n++
			if meta&trace.MetaTakenBit != 0 || class == isa.Jump {
				// Fetch break: a taken transfer ends the fetch group.
				return nil
			}
			continue
		}
		if s.ov.VPredFP != 0 {
			// Bits 6/7 are only ever set on eligible records, so the replay
			// needs no eligibility re-check.
			switch code := s.ov.Code[idx]; {
			case code&overlay.VPredHit != 0:
				entry.vpredHit = true
			case code&overlay.VPredMiss != 0:
				entry.vpredMiss = true
				s.fqPush(entry)
				s.awaitResolve = true
				return nil
			}
		}
		s.fqPush(entry)
		n++
	}
	return nil
}

// fqPush appends an entry to the frontend queue ring. Callers check fqLen
// against the ring capacity before fetching.
func (s *simulator) fqPush(e fqEntry) {
	slot := s.fqHead + s.fqLen
	if cap := int32(len(s.fq)); slot >= cap {
		slot -= cap
	}
	s.fq[slot] = e
	s.fqLen++
}

// fetchWrongPath advances the frontend down the mispredicted path for one
// cycle, touching the I-cache hierarchy line by line. A wrong-path I-miss
// parks the wrong-path fetch (the redirect always arrives before a
// realistic frontend would chase it further).
func (s *simulator) fetchWrongPath() {
	lineBytes := uint64(s.mem.LineSizeI())
	lineMask := ^(lineBytes - 1)
	for i := 0; i < s.cfg.FetchWidth; i++ {
		line := s.wrongPC & lineMask
		if !s.haveWrong || line != s.wrongLine {
			s.wrongLine = line
			s.haveWrong = true
			switch s.mem.FetchWrongPath(s.wrongPC) {
			case cache.ShortMiss:
				s.c.wrongPathIMisses++
				return // the L2 fill occupies this fetch cycle
			case cache.LongMiss:
				s.c.wrongPathIMisses++
				s.wrongActive = false // abandoned until the redirect
				return
			}
		}
		s.wrongPC += 4
	}
}

// skipFunctional consumes the skip phase's instructions through the caches
// and the branch predictor only. It runs "instantly": no cycles elapse and
// nothing is dispatched, so the skipped instructions never appear in
// committed counts, events, or records. It reads only the columns each
// instruction class needs: fast-forwarding is bounded by memory traffic, so
// the narrow reads are what make sampled sweeps several times cheaper than
// detailed ones.
func (s *simulator) skipFunctional(n uint64) {
	i := s.fetchIdx
	var in isa.Inst
	for ; n > 0 && i < s.limit; n-- {
		pc := s.soa.PC[i]
		if line := pc & s.lineMask; !s.haveFetchLine || line != s.curFetchLine {
			s.curFetchLine = line
			s.haveFetchLine = true
			s.mem.Fetch(pc)
		}
		cls := isa.Class(s.soa.Meta[i] & trace.MetaClassMask)
		switch {
		case cls.IsMem():
			s.mem.Data(s.soa.Addr[i])
		case cls.IsControl():
			s.soa.InstAt(int(i), &in)
			mis := s.pred.Access(&in)
			if s.conf != nil && cls == isa.Branch {
				s.conf.access(pc, mis)
			}
		}
		if s.vrun != nil && overlay.VPredEligible(cls, s.soa.Dst[i]) {
			s.vrun.Access(pc)
		}
		i++
	}
	s.fetchIdx = i
}

// markUnitBoundary closes one sampling measurement unit: the statistics
// delta since the previous boundary. It runs at every detailed→skip
// transition and once more at the end of the run (the trailing, possibly
// partial, detailed phase). A boundary before anything committed — possible
// with very short detailed phases — folds into the next unit instead of
// producing an undefined CPI observation.
func (s *simulator) markUnitBoundary() {
	u := sampleUnit{
		insts:       s.committed - s.unitBase.insts,
		cycles:      s.cycle - s.unitBase.cycles,
		mispredicts: s.c.mispredicts - s.unitBase.mispredicts,
		longDMisses: s.c.longDMisses - s.unitBase.longDMisses,
	}
	if u.insts == 0 {
		return
	}
	s.units = append(s.units, u)
	s.unitBase = sampleUnit{
		insts:       s.committed,
		cycles:      s.cycle,
		mispredicts: s.c.mispredicts,
		longDMisses: s.c.longDMisses,
	}
}

// finishSampling attaches the per-metric confidence intervals of a sampled
// run to its Result. Units are per-detailed-phase statistic deltas, so the
// SMARTS-style estimator treats them as independent systematic samples of
// the whole trace.
func (s *simulator) finishSampling() {
	if !s.opts.sampling() {
		return
	}
	s.markUnitBoundary() // close the trailing partial unit
	n := len(s.units)
	insts := make([]float64, n)
	cycles := make([]float64, n)
	misp := make([]float64, n)
	longd := make([]float64, n)
	for i, u := range s.units {
		insts[i] = float64(u.insts)
		cycles[i] = float64(u.cycles)
		misp[i] = float64(u.mispredicts) * 1000
		longd[i] = float64(u.longDMisses) * 1000
	}
	s.res.Sample = &SampleStats{
		Units:          n,
		Confidence:     sampleConfidence,
		CPI:            newInterval(cycles, insts),
		MispredictsPKI: newInterval(misp, insts),
		LongDMissesPKI: newInterval(longd, insts),
	}
}

func (s *simulator) event(kind EventKind, idx uint64, lvl cache.Level) {
	if kind != EvBranchMispredict && idx > s.lastMissIdx {
		// Track burstiness distance for non-branch events too.
		s.lastMissIdx = idx
	}
	if s.opts.RecordEvents {
		s.res.Events = append(s.res.Events, MissEvent{Kind: kind, Index: idx, Cycle: s.cycle, Level: lvl})
	}
}

func minU64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}
