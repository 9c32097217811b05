package uarch

import (
	"context"
	"fmt"
	"math"
	"math/bits"

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
// once on entry, never read past Options.MaxInsts. Every run takes operand
// and memory dependences from the metadata precomputed at pack time; a
// fast-forwarded run maps their trace indices to its dispatch sequence
// numbers (see dispatchSeq and TestRunPathsIdentical).
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
// ROBSize. The entry carries only what the backend stages touch — wakeup
// state, completion time, class, and address — so a slot stays within one
// cache line instead of dragging the full 40-byte isa.Inst through the
// scheduler.
//
// Wakeup state: pend counts the operand producers that had not issued when
// the entry dispatched and have not issued since; readyAt is the latest
// doneAt of the producers that have. The entry waits on each unissued
// producer through a link, one per operand (0, 1 = registers, 2 = memory):
// a producer's waiters heads the list of its consumers' links, and a
// consumer's next[k] continues the list it joined for operand k, each link
// encoded as slot<<2 | k, -1 ending the list. When pend is 0 the entry is
// scheduled (its bit is set in simulator.sched) and issues from readyAt on.
type robEntry struct {
	seq     uint64 // sequence number (= trace index when not sampling)
	doneAt  uint64
	readyAt uint64
	addr    uint64 // effective address for loads/stores
	waiters int32
	next    [3]int32
	pend    uint8
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

	// Replay mode (Options.Overlay, validated in newSimulator): the I-line
	// levels, branch outcomes and value-prediction outcomes fetch needs come
	// from ov instead of live lookups (see iFetch, predict, valuePredict).
	ov *overlay.Overlay

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

	// Scheduled entries (issue on wakeup): bit slot of sched is set while
	// the entry in that slot is unissued with every producer issued, so
	// issue visits only entries that can issue once readyAt comes.
	// schedLo is a lower bound on the scheduled entries' readyAt,
	// math.MaxUint64 when none is scheduled.
	sched   []uint64
	schedLo uint64

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

	// Fast-forwarding state. ffwd: the run skips instructions, so sequence
	// numbers count dispatch slots, not trace indices (see dispatchSeq).
	// phaseLeft counts the instructions left to fetch in the current
	// detailed phase, 0 while the next skip is due; it never runs out in a
	// run that does not sample. period is the sampling period, the detailed
	// and skipped phases together (0 when not sampling).
	ffwd         bool
	startSkipped bool
	phaseLeft    uint64
	period       uint64

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
		sched:         make([]uint64, (cfg.ROBSize+63)/64),
		schedLo:       math.MaxUint64,
		fq:            make([]fqEntry, fqCap),
		pendingResume: -1,
		res:           &Result{Config: cfg, Path: "soa"},
	}
	s.lineMask = ^uint64(s.mem.LineSizeI() - 1)
	if opts.MaxInsts > 0 && opts.MaxInsts < s.limit {
		s.limit = opts.MaxInsts
	}
	s.ffwd = opts.fastForwarded()
	if ov := opts.Overlay; ov != nil {
		// Replay only when the overlay provably applies; otherwise fall back
		// to live simulation and say why.
		switch {
		case s.ffwd:
			s.noteFallback("overlay ignored: sampled/fast-forwarded run")
		case opts.WrongPathFetch:
			s.noteFallback("overlay ignored: wrong-path fetch needs live L1I state")
		case ov.Trace != soa:
			s.noteFallback("overlay ignored: computed for a different trace")
		case ov.PredFP != cfg.Pred.Fingerprint() || ov.MemFP != cfg.Mem.Fingerprint():
			s.noteFallback("overlay ignored: predictor/cache-geometry fingerprint mismatch")
		case ov.VPredFP != overlay.VPredFingerprint(cfg.VPred):
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
	s.phaseLeft = math.MaxUint64
	if opts.sampling() {
		s.phaseLeft = opts.SampleDetailed
		// A sum past the uint64 range saturates: no trace is that long, so
		// the first phase is then the only one.
		if s.period = opts.SampleDetailed + opts.SampleSkip; s.period < opts.SampleSkip {
			s.period = math.MaxUint64
		}
	}
	s.res.Sampled = s.ffwd
	return s, nil
}

// noteFallback appends one bypassed-fast-path reason to the Result.
func (s *simulator) noteFallback(reason string) {
	if s.res.Fallback != "" {
		s.res.Fallback += "; "
	}
	s.res.Fallback += reason
}

// cacheStats returns the hierarchy counters of the run.
func (s *simulator) cacheStats() CacheStats {
	return CacheStats{L1I: s.mem.L1I.Stats, L1D: s.mem.L1D.Stats, L2: s.mem.L2.Stats}
}

// ctxPollMask sets how often the simulation loop polls its context: every
// ctxPollMask+1 cycles, cheap enough to be invisible in profiles.
const ctxPollMask = 0x3ff

// skipDeadCycles lets step jump over dead cycles (see skipDead). Only tests
// clear it, to run the one-cycle-at-a-time reference loop the skip must
// reproduce exactly.
var skipDeadCycles = true

// issueSelect, when set, replaces issue: only tests set it, to the
// operand-polling scan that issue on wakeup must reproduce exactly.
var issueSelect func(*simulator) int

// depSelect, when set, replaces the producers dispatch reads: only tests
// set it, to the last-writer tracker that the precomputed dependences and
// dispatchSeq must reproduce exactly. It returns the producers of the
// instruction at trace index idx, which dispatches as sequence number seq.
var depSelect func(s *simulator, idx, seq uint64) (p1, p2, pm int64)

func (s *simulator) run(ctx context.Context) (*Result, error) {
	s.noProgress = s.opts.NoProgressCycles
	if s.noProgress == 0 {
		s.noProgress = 1_000_000
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
	left, started, wrong := s.phaseLeft, s.startSkipped, s.wrongActive
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
		s.phaseLeft == left && s.startSkipped == started {
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
// machine can change: the ROB head completing, a scheduled instruction
// reaching its readyAt or, once ready, a unit of its pool freeing up, the
// frontend-queue head reaching dispatch, or fetch resuming. An unscheduled
// instruction waits on an unissued producer, whose issue comes first. It
// returns math.MaxUint64 when there is no such cycle.
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
	for i, w := range s.sched {
		for ; w != 0 && h > now+1; w &= w - 1 {
			e := &s.rob[i<<6|bits.TrailingZeros64(w)]
			if e.readyAt > now {
				at(e.readyAt)
				continue
			}
			for _, freeAt := range s.fus[s.poolByClass[e.class]] {
				at(freeAt)
			}
		}
	}
	return h
}

// finalize assembles the Result after the last step reported completion.
func (s *simulator) finalize() *Result {
	s.res.Insts = s.committed
	s.res.Cycles = s.cycle
	s.flushCounters()
	s.res.Bpred = s.pred.Stats
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
		bpred:         s.pred.Stats,
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

// issue sends up to IssueWidth ready instructions to free functional units
// and returns how many it issued. Its candidates are the scheduled entries,
// those whose producers have all issued: it walks them oldest first,
// circularly from headSlot, and issues each whose readyAt has come and whose
// pool has a free unit, so an older entry blocked on its pool does not block
// a younger one of another pool. While schedLo, the lower bound on the
// scheduled entries' readyAt, is still ahead, nothing can issue and it
// returns at once.
func (s *simulator) issue() int {
	if issueSelect != nil {
		return issueSelect(s)
	}
	now := s.cycle
	if s.schedLo > now {
		return 0
	}
	// The walk rebuilds the bound from the entries it leaves scheduled;
	// wakeups during the walk lower s.schedLo themselves.
	lo := uint64(math.MaxUint64)
	s.schedLo = math.MaxUint64
	issued := 0
	n := len(s.sched)
	hw := int(s.headSlot >> 6)
	above := ^uint64(0) << (uint(s.headSlot) & 63) // slots from headSlot on in word hw
	for k := 0; k <= n; k++ {
		i := hw + k
		if i >= n {
			i -= n
		}
		w := s.sched[i]
		switch k {
		case 0:
			w &= above
		case n:
			w &^= above
		}
		for ; w != 0; w &= w - 1 {
			slot := int32(i<<6 | bits.TrailingZeros64(w))
			e := &s.rob[slot]
			if e.readyAt > now {
				lo = min(lo, e.readyAt)
				continue
			}
			unit := s.freeUnit(e.class)
			if unit < 0 {
				lo = min(lo, e.readyAt) // structural hazard: retry next cycle
				continue
			}
			s.issueOn(slot, unit)
			if issued++; issued == s.cfg.IssueWidth {
				s.schedLo = 0 // the entries after this one were not visited
				return issued
			}
		}
	}
	s.schedLo = min(s.schedLo, lo)
	return issued
}

// freeUnit returns a unit of class's pool that can accept an operation this
// cycle, or -1 when every unit is busy.
func (s *simulator) freeUnit(class isa.Class) int {
	for u, freeAt := range s.fus[s.poolByClass[class]] {
		if freeAt <= s.cycle {
			return u
		}
	}
	return -1
}

// issueOn issues the entry in slot on unit of its pool: it executes the
// operation (a load's latency comes from the data cache), books the unit,
// resolves a pending redirect or value flush, and wakes the entry's
// waiters, scheduling each whose last unissued producer this was. Every
// latency is at least 1, so a waiter woken in this cycle has a readyAt
// after it and cannot issue before the next one.
func (s *simulator) issueOn(slot int32, unit int) {
	e := &s.rob[slot]
	pool := s.poolByClass[e.class]
	lat := s.latByClass[e.class]
	switch e.class {
	case isa.Load:
		lvl, l := s.mem.Data(e.addr)
		lat = uint64(l)
		s.c.loadsExecuted++
		if s.opts.RecordLoadLevels {
			// The capacity, s.limit, exceeds every sequence number, and
			// the bytes a reslice exposes are still zero.
			if n := e.seq + 1; n > uint64(len(s.res.LoadLevels)) {
				s.res.LoadLevels = s.res.LoadLevels[:n]
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
	s.sched[slot>>6] &^= 1 << (slot & 63)
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
	for l := e.waiters; l >= 0; {
		c := &s.rob[l>>2]
		c.readyAt = max(c.readyAt, e.doneAt)
		if c.pend--; c.pend == 0 {
			s.schedule(l>>2, c.readyAt)
		}
		l = c.next[l&3]
	}
}

// schedule makes the entry in slot, whose producers have all issued, a
// candidate for issue from readyAt on.
func (s *simulator) schedule(slot int32, readyAt uint64) {
	s.sched[slot>>6] |= 1 << (slot & 63)
	s.schedLo = min(s.schedLo, readyAt)
}

// await makes the entry e, just dispatched, wait for dep (a sequence
// number, or noDep), the producer of the operand that link (slot<<2 | k)
// names. A producer that has committed, or whose result was value-predicted,
// is not waited on; one that has issued raises e.readyAt to its doneAt; one
// that has not issued yet takes e into its waiters.
func (s *simulator) await(e *robEntry, link int32, dep int64) {
	if dep < 0 || uint64(dep) < s.head {
		return
	}
	switch p := &s.rob[s.robSlot(uint64(dep))]; {
	case p.vpredOK:
	case p.issued:
		e.readyAt = max(e.readyAt, p.doneAt)
	default:
		e.pend++
		e.next[link&3] = p.waiters
		p.waiters = link
	}
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
		*e = robEntry{seq: seq, addr: f.addr, class: f.class, waiters: -1}
		// Dependence metadata was computed once at pack time, by trace index.
		p1 := int64(s.soa.Dep1[f.idx])
		p2 := int64(s.soa.Dep2[f.idx])
		pm := int64(s.soa.DepMem[f.idx])
		if s.ffwd {
			p1, p2, pm = s.dispatchSeq(p1), s.dispatchSeq(p2), s.dispatchSeq(pm)
		}
		if depSelect != nil {
			p1, p2, pm = depSelect(s, f.idx, seq)
		}
		s.await(e, slot<<2, p1)
		s.await(e, slot<<2|1, p2)
		s.await(e, slot<<2|2, pm)

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
		if e.pend == 0 {
			s.schedule(slot, e.readyAt)
		}
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

// dispatchSeq maps p, the trace index of a producer or noDep, to the
// sequence number it dispatched under in a fast-forwarded run, or to noDep
// when it was skipped: a skipped instruction takes no time, so its result
// is ready. The run skips the first SampleStartSkip instructions and, when
// sampling, then alternates SampleDetailed fetched instructions with
// SampleSkip skipped ones. Fetch stops the group at the end of a phase,
// so phase k fetches exactly the trace indices S+k·P to S+k·P+D−1 (S the
// start skip, D the detailed phase, P the period) and dispatches them as
// sequence numbers k·D to k·D+D−1.
func (s *simulator) dispatchSeq(p int64) int64 {
	start := s.opts.SampleStartSkip
	if p < 0 || uint64(p) < start {
		return noDep
	}
	q := uint64(p) - start
	if s.period > 0 {
		d := s.opts.SampleDetailed
		r := q % s.period
		if r >= d {
			return noDep
		}
		q = q/s.period*d + r
	}
	return int64(q)
}

// fetch brings the next instructions of the trace into the frontend queue:
// up to the fetch width, ending the group at an I-cache miss, a
// mispredicted control instruction, a confident-wrong value prediction or a
// taken transfer. It reads the packed columns by index. The three outcomes
// the overlay records in program order — the I-line level at a line
// crossing, the branch outcome and the value-prediction outcome — come from
// iFetch, predict and valuePredict, which answer live or, in replay mode,
// from the overlay.
func (s *simulator) fetch() error {
	if s.awaitResolve || s.cycle < s.fetchResumeAt {
		if s.wrongActive {
			s.fetchWrongPath()
		}
		return nil
	}
	s.wrongActive = false
	sampling := s.period > 0
	if n := s.opts.SampleStartSkip; n > 0 && !s.startSkipped {
		// Initial fast-forward past the cold-start region.
		s.startSkipped = true
		if err := s.skipFunctional(n); err != nil {
			return err
		}
	}
	if s.phaseLeft == 0 {
		// Fast-forward: warm the caches and predictors functionally, no
		// timing. The backend keeps draining the last detailed phase.
		if err := s.skipFunctional(s.opts.SampleSkip); err != nil {
			return err
		}
		s.phaseLeft = s.opts.SampleDetailed
	}
	soa := s.soa
	fqCap := int32(len(s.fq))
	vpredOn := s.cfg.VPred != nil
	n := 0
	// The group stops at the end of a detailed phase, so that every phase
	// fetches exactly SampleDetailed instructions (see dispatchSeq).
	for n < s.fetchWidth() && s.fqLen < fqCap && s.fetchIdx < s.limit && s.phaseLeft > 0 {
		idx := s.fetchIdx
		pc := soa.PC[idx]
		if line := pc & s.lineMask; !s.haveFetchLine || line != s.curFetchLine {
			s.curFetchLine = line
			s.haveFetchLine = true
			lvl, lat, err := s.iFetch(idx, pc)
			if err != nil {
				return err
			}
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
		s.fetchIdx = idx + 1
		if sampling {
			if s.phaseLeft--; s.phaseLeft == 0 {
				s.markUnitBoundary()
			}
		}
		meta := soa.Meta[idx]
		class := isa.Class(meta & trace.MetaClassMask)
		entry := fqEntry{
			idx:     idx,
			addr:    soa.Addr[idx],
			readyAt: s.cycle + uint64(s.cfg.FrontendDepth),
			class:   class,
		}
		if class.IsControl() {
			mis := s.predict(idx, pc, meta)
			if s.conf != nil && class == isa.Branch && s.conf.access(pc, mis) {
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
					if class == isa.Branch && meta&trace.MetaTakenBit == 0 {
						// Predicted taken (or misfetched): the frontend went
						// to the branch target.
						s.wrongPC = soa.Target[idx]
					} else {
						// Predicted not-taken: the frontend fell through.
						s.wrongPC = pc + 4
					}
				}
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
		if vpredOn && overlay.VPredEligible(class, soa.Dst[idx]) {
			switch s.valuePredict(idx, pc) {
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

// iFetch accesses the I-cache line holding pc, first fetched at trace index
// idx, and returns the level that served it and its latency. In replay mode
// the level comes from the overlay: the access counts into the L1I's
// statistics as a live one would, and a miss sends the live L2 the fill a
// live L1I miss sends, so the L2 state shared with the data side evolves
// exactly as in a live run.
func (s *simulator) iFetch(idx, pc uint64) (cache.Level, int, error) {
	if s.ov == nil {
		lvl, lat := s.mem.Fetch(pc)
		return lvl, lat, nil
	}
	lvl, ok := s.ov.IClass(int(idx))
	if !ok {
		return 0, 0, fmt.Errorf("uarch: overlay has no I-fetch outcome at index %d (line-crossing mismatch)", idx)
	}
	st := &s.mem.L1I.Stats
	st.Accesses++
	if lvl == cache.L1Hit {
		return lvl, s.mem.Lat.L1, nil
	}
	st.Misses++
	s.mem.L2.Access(pc)
	if lvl == cache.LongMiss {
		return lvl, s.mem.Lat.Mem, nil
	}
	return lvl, s.mem.Lat.L2, nil
}

// predict reports whether the control instruction at trace index idx (its
// pc and Meta byte given) is mispredicted. In replay mode the outcome comes
// from the overlay and counts into the unit's statistics as the live access
// would.
func (s *simulator) predict(idx, pc uint64, meta uint8) bool {
	class := isa.Class(meta & trace.MetaClassMask)
	if s.ov == nil {
		// Unit.Access reads only these four fields.
		in := isa.Inst{PC: pc, Target: s.soa.Target[idx], Taken: meta&trace.MetaTakenBit != 0, Class: class}
		return s.pred.Access(&in)
	}
	st := &s.pred.Stats
	if class == isa.Branch {
		st.Branches++
	} else {
		st.Jumps++
	}
	switch code := s.ov.Code[idx]; {
	case code&overlay.DirMiss != 0:
		st.DirMispredict++
	case code&overlay.BTBMiss != 0:
		st.BTBMispredict++
	default:
		return false
	}
	return true
}

// valuePredict returns the value-prediction outcome of the eligible
// instruction at trace index idx: the live runner's, or in replay mode the
// overlay's.
func (s *simulator) valuePredict(idx, pc uint64) vpred.Outcome {
	if s.ov == nil {
		return s.vrun.Access(pc)
	}
	switch code := s.ov.Code[idx]; {
	case code&overlay.VPredHit != 0:
		return vpred.Hit
	case code&overlay.VPredMiss != 0:
		return vpred.Miss
	}
	return vpred.None
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
// and the branch and value predictors only, by the same outcome helpers as
// fetch. It runs "instantly": no cycles elapse and nothing is dispatched, so
// the skipped instructions never appear in committed counts, events, or
// records. It reads only the columns each instruction class needs:
// fast-forwarding is bounded by memory traffic, so the narrow reads are
// what make sampled sweeps several times cheaper than detailed ones.
func (s *simulator) skipFunctional(n uint64) error {
	i := s.fetchIdx
	vpredOn := s.cfg.VPred != nil
	for ; n > 0 && i < s.limit; n-- {
		pc := s.soa.PC[i]
		if line := pc & s.lineMask; !s.haveFetchLine || line != s.curFetchLine {
			s.curFetchLine = line
			s.haveFetchLine = true
			if _, _, err := s.iFetch(i, pc); err != nil {
				return err
			}
		}
		meta := s.soa.Meta[i]
		cls := isa.Class(meta & trace.MetaClassMask)
		switch {
		case cls.IsMem():
			s.mem.Data(s.soa.Addr[i])
		case cls.IsControl():
			mis := s.predict(i, pc, meta)
			if s.conf != nil && cls == isa.Branch {
				s.conf.access(pc, mis)
			}
		}
		if vpredOn && overlay.VPredEligible(cls, s.soa.Dst[i]) {
			s.valuePredict(i, pc)
		}
		i++
	}
	s.fetchIdx = i
	return nil
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
	if s.period == 0 {
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
