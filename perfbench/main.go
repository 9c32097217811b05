package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"

	"intervalsim/internal/core"
	"intervalsim/internal/experiments"
	"intervalsim/internal/overlay"
	"intervalsim/internal/rng"
	"intervalsim/internal/stats"
	"intervalsim/internal/trace"
	"intervalsim/internal/uarch"
	"intervalsim/internal/workload"
)

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

// workloadNames lists the workloads in the order BENCHMARK.json gives them.
var workloadNames = []string{"sweep-mcf", "sweep-gzip", "model-grid", "service-mixed"}

func newWorkload(name string) runner {
	switch name {
	case "sweep-mcf":
		return &sweep{bench: "mcf"}
	case "sweep-gzip":
		return &sweep{bench: "gzip"}
	case "model-grid":
		return &modelGrid{}
	case "service-mixed":
		return &serviceMixed{}
	}
	return nil
}

// runner runs one benchmark workload. The benchmark calls setup several
// times, then round until the timed region is over, then verify, then close.
type runner interface {
	// setup builds the workload's inputs from the run seed.
	setup(b *bench, parent int32) error
	// round runs repetition n of the workload's fixed unit of work, calling
	// b.op once per operation in the same order every time.
	round(b *bench, parent int32, n int) error
	// verify checks the outputs of the timed region.
	verify(b *bench, parent int32) error
	// close releases what setup acquired.
	close()
}

// setupRuns is how often a run sets its workload up; setup_s is the median.
const setupRuns = 3

// serviceConns is the number of closed-loop clients, connections and
// service workers: one per core of the 2-core host the load is sized for.
const serviceConns = 2

// maxModelErr bounds the analytic model's relative CPI error against the
// cycle-level simulator at every point the benchmark compares. The model is
// least accurate on memory-bound mcf programs (0.37 on one sweep-mcf pool
// program at w2-d3-r256), so the bound catches a broken model, not that
// known bias.
const maxModelErr = 0.5

// sizes fixes how much work each workload does per operation.
type sizes struct {
	grid       [][3]int // (width, depth, rob) design points
	programs   int      // programs per sweep workload
	sweepInsts int
	modelInsts int
	reqInsts   int
	warmupReqs int // requests per service set-up
	roundReqs  int // requests per service round
	checkReqs  int // service answers recomputed in-process
}

func fullGrid() [][3]int {
	var g [][3]int
	for _, w := range []int{2, 4, 8} {
		for _, d := range []int{3, 7, 11} {
			for _, r := range []int{64, 128, 256} {
				g = append(g, [3]int{w, d, r})
			}
		}
	}
	return g
}

var (
	fullSize = sizes{
		grid: fullGrid(), programs: 9,
		sweepInsts: 200_000, modelInsts: 500_000, reqInsts: 100_000,
		warmupReqs: 40, roundReqs: 100, checkReqs: 20,
	}
	quickSize = sizes{
		grid:     [][3]int{{2, 3, 64}, {4, 7, 128}, {8, 11, 256}, {4, 3, 256}},
		programs: 2, sweepInsts: 30_000, modelInsts: 30_000, reqInsts: 20_000,
		warmupReqs: 8, roundReqs: 10, checkReqs: 5,
	}
)

// refPoints are the design points where model-grid compares the model with
// the simulator: the grid's corners and its centre. Both grids hold them.
var refPoints = [][3]int{{2, 3, 64}, {4, 7, 128}, {8, 11, 256}}

// warmup is the share of each trace excluded from statistics, as in
// cmd/sweep (200k of 1M).
func warmup(insts int) uint64 { return uint64(insts / 5) }

// poolProgram returns program j of bench's fixed pool. Program 0 is the
// suite benchmark itself; the others share its statistics under their own
// generator seeds. Pools do not depend on the run seed, so every run
// simulates programs of the same cost: a program's CPI, and with it the
// simulator's host time, varies by tens of percent from one generator seed
// to the next. The run seed decides how the pool is used.
func poolProgram(bench string, j int) workload.Config {
	wc, _ := workload.SuiteConfig(bench)
	if j > 0 {
		wc.Seed = rng.New(wc.Seed + uint64(j)).Uint64()
	}
	return wc
}

// derive mixes a base value, the run seed and an index into a new seed.
func derive(base, seed uint64, j int) uint64 {
	return rng.New(base ^ seed<<20 ^ uint64(j)).Uint64()
}

// perm returns a permutation of [0, n) drawn from the run seed and salt.
func (b *bench) perm(n int, salt uint64) []int {
	p := make([]int, n)
	rng.New(derive(salt, b.seed, 0)).Perm(p)
	return p
}

func point(p [3]int) uarch.Config { return experiments.Point(p[0], p[1], p[2]) }

// bench is one benchmark run: its settings and everything it measured.
type bench struct {
	seed    uint64
	size    sizes
	seconds time.Duration
	tr      *tracer // nil in untraced runs
	stderr  io.Writer

	setupS    []float64
	roundMS   [][]float64 // per round, each operation's latency
	inFlight  int         // operations the workload keeps in flight at once
	attempted int
	failed    int
	rows      []string // canonical outputs, hashed into check.digest

	sim      simStats  // simulated statistics of the runs verify names
	host     hostStats // host cost of every simulation (traced runs)
	modelErr float64
	svc      svcStats
	timed    int32 // the timed region's span
}

// check counts one output check and reports a failure.
func (b *bench) check(ok bool, format string, args ...any) {
	b.attempted++
	if !ok {
		b.failed++
		fmt.Fprintf(b.stderr, "perfbench: check failed: "+format+"\n", args...)
	}
}

// op records the latency of the current round's next operation.
func (b *bench) op(d time.Duration, err error) {
	r := len(b.roundMS) - 1
	b.roundMS[r] = append(b.roundMS[r], float64(d.Nanoseconds())/1e6)
	b.check(err == nil, "operation: %v", err)
}

func (b *bench) run(w runner) error {
	defer w.close()
	for i := 0; i < setupRuns; i++ {
		w.close()
		runtime.GC() // each set-up starts from an empty heap
		id := b.tr.begin("bench.setup", -1)
		start := time.Now()
		err := w.setup(b, id)
		b.setupS = append(b.setupS, time.Since(start).Seconds())
		b.tr.end(id)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
	}
	runtime.GC() // nor does the timed region pay for set-up garbage
	b.timed = b.tr.begin("bench.timed", -1)
	deadline := time.Now().Add(b.seconds)
	for n := 0; n == 0 || time.Now().Before(deadline); n++ {
		id := b.tr.begin("bench.round", b.timed)
		b.roundMS = append(b.roundMS, nil)
		err := w.round(b, id, n)
		b.tr.end(id)
		if err != nil {
			return fmt.Errorf("timed region: %w", err)
		}
	}
	b.tr.end(b.timed)
	id := b.tr.begin("bench.check", -1)
	defer b.tr.end(id)
	return w.verify(b, id)
}

// layer times one call into a layer as a span under parent.
func (b *bench) layer(name string, parent int32, f func() error) error {
	id := b.tr.begin(name, parent)
	err := f()
	b.tr.end(id)
	return err
}

// program is one generated workload trace with the artifacts every run over
// it shares.
type program struct {
	wc  workload.Config
	tr  *trace.Trace
	soa *trace.SoA
	ov  *overlay.Overlay
}

// build generates, packs and pre-passes one program the way the service's
// trace cache does.
func (b *bench) build(parent int32, wc workload.Config, insts int) (*program, error) {
	p := &program{wc: wc}
	err := b.layer("workload.gen", parent, func() error {
		gen, err := workload.New(wc, insts)
		if err != nil {
			return err
		}
		p.tr, err = trace.ReadAll(gen)
		return err
	})
	if err != nil {
		return nil, err
	}
	b.layer("trace.pack", parent, func() error { p.soa = trace.Pack(p.tr); return nil })
	base := uarch.Baseline()
	err = b.layer("overlay.compute", parent, func() (err error) {
		p.ov, err = overlay.Compute(p.soa, base.Pred, base.Mem)
		return err
	})
	return p, err
}

// simOptions are the options of every simulation the benchmark compares:
// cmd/sweep's, with the penalty decomposition's inputs recorded.
func simOptions(insts int, ov *overlay.Overlay) uarch.Options {
	return uarch.Options{RecordMispredicts: true, RecordLoadLevels: true, WarmupInsts: warmup(insts), Overlay: ov}
}

// simulate runs one cycle-level simulation as a layer call. Traced runs
// also count its heap allocations, reading the counters outside the span.
func (b *bench) simulate(parent int32, p *program, cfg uarch.Config, opts uarch.Options) (*uarch.Result, error) {
	var before, after runtime.MemStats
	if b.tr != nil {
		b.readMem(&before)
	}
	id := b.tr.begin("uarch.run", parent)
	start := time.Now()
	res, err := uarch.RunContext(context.Background(), p.soa.Reader(), cfg, opts)
	d := time.Since(start)
	b.tr.end(id)
	if b.tr != nil && err == nil {
		b.readMem(&after)
		b.host.add(d, res, after.Mallocs-before.Mallocs)
	}
	return res, err
}

func (b *bench) readMem(ms *runtime.MemStats) {
	start := time.Now()
	runtime.ReadMemStats(ms)
	b.host.memStats += time.Since(start)
}

// decompose splits every misprediction penalty of res into its contributors.
func (b *bench) decompose(parent int32, p *program, res *uarch.Result) ([]core.Breakdown, error) {
	var bds []core.Breakdown
	err := b.layer("core.decompose", parent, func() error {
		dec, err := core.NewDecomposer(p.tr, res)
		if err != nil {
			return err
		}
		bds = dec.DecomposeAll()
		return nil
	})
	return bds, err
}

// modelSet prepares the analytic model family over p for points up to maxROB.
func (b *bench) modelSet(parent int32, p *program, base uarch.Config, maxROB, insts int) (*core.ModelSet, error) {
	var set *core.ModelSet
	err := b.layer("core.modelset", parent, func() (err error) {
		set, err = core.NewModelSet(p.soa, p.ov, base, maxROB, warmup(insts), insts)
		return err
	})
	return set, err
}

// predict evaluates the model at cfg.
func (b *bench) predict(parent int32, set *core.ModelSet, cfg uarch.Config) (core.CPIBreakdown, error) {
	var m *core.Model
	var prof *core.Profile
	if err := b.layer("core.model_for", parent, func() (err error) {
		m, prof, err = set.For(cfg)
		return err
	}); err != nil {
		return core.CPIBreakdown{}, err
	}
	var pred core.CPIBreakdown
	err := b.layer("core.predict", parent, func() (err error) {
		pred, err = m.PredictCPI(prof)
		return err
	})
	return pred, err
}

// checkDecomposition checks the decomposition identity on every breakdown of
// one simulation, which must have at least one.
func (b *bench) checkDecomposition(what string, bds []core.Breakdown) {
	bad := 0
	for _, d := range bds {
		sum := d.Frontend + d.BaseILP + d.FULatency + d.ShortDMiss + d.LongDMiss + d.Residual
		if math.Abs(sum-d.Total) > 1e-9*math.Max(1, math.Abs(d.Total)) {
			bad++
		}
	}
	b.check(len(bds) > 0 && bad == 0, "%s: %d of %d decompositions do not sum to the penalty", what, bad, len(bds))
}

// checkModel compares a model prediction with the simulated CPI.
func (b *bench) checkModel(what string, pred core.CPIBreakdown, res *uarch.Result) {
	e := math.Abs(pred.CPI()-res.CPI()) / res.CPI()
	b.modelErr = math.Max(b.modelErr, e)
	b.check(e <= maxModelErr, "%s: model CPI %.4f vs simulated %.4f (error %.3f > %.2f)", what, pred.CPI(), res.CPI(), e, maxModelErr)
}

// simRow is the canonical output row of one simulated design point.
func simRow(name string, res *uarch.Result, bds []core.Breakdown) string {
	m := core.Mean(bds)
	return fmt.Sprintf("%s cycles=%d insts=%d stalls=%v mispredicts=%d records=%d pen=%v/%v/%v/%v/%v/%v/%v",
		name, res.Cycles, res.Insts, res.Stalls, res.Mispredicts, len(bds),
		m.Total, m.Frontend, m.BaseILP, m.FULatency, m.ShortDMiss, m.LongDMiss, m.Residual)
}

// simStats sums the simulated statistics of a set of runs.
type simStats struct {
	runs, insts, cycles, stalls, robFull, branchResolve    uint64
	mispredicts, l1iMisses, l1dAcc, l1dMiss, l2Acc, l2Miss uint64
}

func (s *simStats) add(r *uarch.Result) {
	st := r.Stalls
	s.runs++
	s.insts += r.Insts
	s.cycles += r.Cycles
	s.stalls += st.BranchResolve + st.Refill + st.ICacheMiss + st.ROBFull + st.IQFull + st.Other
	s.robFull += st.ROBFull
	s.branchResolve += st.BranchResolve
	s.mispredicts += r.Mispredicts
	s.l1iMisses += r.Caches.L1I.Misses
	s.l1dAcc += r.Caches.L1D.Accesses
	s.l1dMiss += r.Caches.L1D.Misses
	s.l2Acc += r.Caches.L2.Accesses
	s.l2Miss += r.Caches.L2.Misses
}

// hostStats sums the host cost of simulations.
type hostStats struct {
	runs, insts, cycles, mallocs uint64
	busy, memStats               time.Duration
}

func (h *hostStats) add(d time.Duration, r *uarch.Result, mallocs uint64) {
	h.runs++
	h.insts += r.Insts
	h.cycles += r.Cycles
	h.mallocs += mallocs
	h.busy += d
}

// svcStats are the service's own counters, scraped from /metrics.
type svcStats struct {
	jobP50MS, traceHitRatio, overlayHitRatio float64
}

// metric is one named measurement as the result line prints it.
type metric struct {
	name  string
	value float64
	unit  string
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(xs []float64) float64 { return stats.Percentile(xs, 50) }

// endToEnd returns the metrics a user of the workload sees, measured with
// tracing off. Throughput and latency come from every operation's fastest
// repetition: other tenants of the host slow stretches of a run by up to
// 1.6x, and only the fastest repetition repeats from run to run.
func (b *bench) endToEnd() []metric {
	best := slices.Clone(b.roundMS[0])
	for _, r := range b.roundMS[1:] {
		for i, ms := range r {
			best[i] = math.Min(best[i], ms)
		}
	}
	var sum float64
	for _, ms := range best {
		sum += ms
	}
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) //nolint:errcheck // cannot fail for RUSAGE_SELF
	return []metric{
		{"setup_s", median(b.setupS), "s"},
		{"ops_per_s", float64(len(best)*b.inFlight) / (sum / 1e3), "1/s"},
		{"op_p50_ms", median(best), "ms"},
		{"op_p95_ms", stats.Percentile(best, 95), "ms"},
		{"peak_rss_mb", float64(ru.Maxrss) / 1024, "MB"},
	}
}

// perLayer returns the traced run's metrics: each layer's median self time
// per call, host cost per simulated unit, the simulated statistics, and the
// trace's own coverage and overhead.
func (b *bench) perLayer() []metric {
	self := b.tr.selfMS()
	perCall := func(name string) float64 {
		if len(self[name]) == 0 {
			return 0
		}
		return median(self[name])
	}
	s, h := b.sim, b.host
	var spans int
	for _, v := range self {
		spans += len(v)
	}
	wall := time.Since(b.tr.t0)
	overhead := (float64(spans)*spanCostNs() + float64(h.memStats.Nanoseconds())) / float64(wall.Nanoseconds())
	return []metric{
		{"workload.gen_ms", perCall("workload.gen"), "ms"},
		{"trace.pack_ms", perCall("trace.pack"), "ms"},
		{"overlay.compute_ms", perCall("overlay.compute"), "ms"},
		{"uarch.run_ms", perCall("uarch.run"), "ms"},
		{"core.decompose_ms", perCall("core.decompose"), "ms"},
		{"core.modelset_ms", perCall("core.modelset"), "ms"},
		{"core.model_for_ms", perCall("core.model_for"), "ms"},
		{"core.predict_ms", perCall("core.predict"), "ms"},
		{"service.request_ms", perCall("service.request"), "ms"},
		{"uarch.minst_per_s", ratio(float64(h.insts)/1e6, h.busy.Seconds()), "Minst/s"},
		{"uarch.ns_per_cycle", ratio(float64(h.busy.Nanoseconds()), float64(h.cycles)), "ns"},
		{"uarch.allocs_per_run", ratio(float64(h.mallocs), float64(h.runs)), "count"},
		{"uarch.cycles_per_run", ratio(float64(s.cycles), float64(s.runs)), "count"},
		{"uarch.stall_share", ratio(float64(s.stalls), float64(s.cycles)), "ratio"},
		{"uarch.rob_full_share", ratio(float64(s.robFull), float64(s.cycles)), "ratio"},
		{"uarch.branch_resolve_share", ratio(float64(s.branchResolve), float64(s.cycles)), "ratio"},
		{"bpred.mpki", ratio(float64(s.mispredicts)*1000, float64(s.insts)), "1/kinst"},
		{"cache.l1i_mpki", ratio(float64(s.l1iMisses)*1000, float64(s.insts)), "1/kinst"},
		{"cache.l1d_miss_ratio", ratio(float64(s.l1dMiss), float64(s.l1dAcc)), "ratio"},
		{"cache.l2_miss_ratio", ratio(float64(s.l2Miss), float64(s.l2Acc)), "ratio"},
		{"model.cpi_err_max", b.modelErr, "ratio"},
		{"service.job_p50_ms", b.svc.jobP50MS, "ms"},
		{"service.trace_hit_ratio", b.svc.traceHitRatio, "ratio"},
		{"service.overlay_hit_ratio", b.svc.overlayHitRatio, "ratio"},
		{"bench.span_coverage", b.tr.coverage(b.timed), "ratio"},
		{"bench.trace_overhead", overhead, "ratio"},
	}
}

func (b *bench) digest() string {
	h := sha256.New()
	for _, r := range b.rows {
		io.WriteString(h, r+"\n") //nolint:errcheck // hashes never fail
	}
	return hex.EncodeToString(h.Sum(nil))
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	seed := fs.Uint64("seed", 0, "seed every input of the run is derived from")
	seconds := fs.Float64("seconds", 20, "length of the timed region in seconds")
	traced := fs.Int("trace", 0, "1 records layer spans and prints the per-layer metrics; 0 prints the end-to-end metrics")
	spansPath := fs.String("spans", "", "with -trace 1, also write the recorded spans to this JSON file")
	quick := fs.Bool("quick", false, "run at test size: short traces, a 4-point grid, few requests")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := newWorkload(*name)
	switch {
	case fs.NArg() != 0:
		fmt.Fprintf(stderr, "perfbench: unexpected arguments %q\n", fs.Args())
	case w == nil:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames, ", "))
	case *traced != 0 && *traced != 1:
		fmt.Fprintf(stderr, "perfbench: -trace must be 0 or 1, not %d\n", *traced)
	case !(*seconds > 0):
		fmt.Fprintf(stderr, "perfbench: -seconds must be positive\n")
	case *spansPath != "" && *traced != 1:
		fmt.Fprintf(stderr, "perfbench: -spans needs -trace 1\n")
	default:
		b := &bench{seed: *seed, size: fullSize, seconds: time.Duration(*seconds * float64(time.Second)), stderr: stderr, inFlight: 1}
		if *quick {
			b.size = quickSize
		}
		if *traced == 1 {
			b.tr = newTracer()
		}
		return b.report(w, *spansPath, stdout)
	}
	return 2
}

// report runs the benchmark and prints its metrics, one per line, then the
// output digest, then the result object as the last line.
func (b *bench) report(w runner, spansPath string, stdout io.Writer) int {
	if err := b.run(w); err != nil {
		fmt.Fprintln(b.stderr, "perfbench:", err)
		return 1
	}
	ms := b.endToEnd()
	if b.tr != nil {
		ms = b.perLayer()
	}
	res := result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]value{}}
	for _, m := range ms {
		fmt.Fprintf(stdout, "%-28s %14.6g %s\n", m.name, m.value, m.unit)
		res.Metrics[m.name] = value{m.value, m.unit}
	}
	fmt.Fprintf(stdout, "check.digest %s\n", b.digest())
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(b.stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if spansPath != "" {
		if err := b.tr.writeFile(spansPath); err != nil {
			fmt.Fprintln(b.stderr, "perfbench:", err)
			return 1
		}
	}
	if !res.Correct {
		return 1
	}
	return 0
}
