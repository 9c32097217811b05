// Command bench runs a pinned simulator workload matrix and reports
// throughput (inst/s), steady-state heap allocations per run, CPI, and the
// time to decompose every misprediction penalty for each point, writing the
// results as JSON for CI artifact upload and benchstat-style regression
// tracking.
//
// The matrix is fixed on purpose: the same benchmarks, instruction counts,
// and configurations every run, so numbers are comparable across commits.
// Each benchmark's trace is packed once and simulated with precomputed
// dependences, as every sweep runs it. A sweep-level metric follows the
// matrix: the wall-clock of a whole depth×ROB sweep run live, with overlay
// replay, and with the analytic model off a shared overlay, plus the overlay
// cache hit rate — the end-to-end numbers the miss-event overlay exists to
// improve.
//
// Usage:
//
//	bench [-quick] [-o BENCH_simulator.json] [-runs N]
//
// -quick shrinks the matrix for CI smoke runs (fewer instructions, fewer
// repetitions); full runs are for committed baselines. Exit codes: 0
// success, 1 runtime error, 2 usage error.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http/httptest"
	"os"
	"runtime"
	"time"

	"intervalsim/internal/bpred"
	"intervalsim/internal/cluster"
	"intervalsim/internal/core"
	"intervalsim/internal/experiments"
	"intervalsim/internal/isa"
	"intervalsim/internal/overlay"
	"intervalsim/internal/service"
	"intervalsim/internal/trace"
	"intervalsim/internal/uarch"
	"intervalsim/internal/version"
	"intervalsim/internal/vpred"
	"intervalsim/internal/workload"
)

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

// benchPoint is one benchmark's row of the matrix.
type benchPoint struct {
	Benchmark    string  `json:"benchmark"`
	Path         string  `json:"path"` // Result.Path of the run: "soa"
	Insts        uint64  `json:"insts"`
	Runs         int     `json:"runs"`
	InstPerS     float64 `json:"inst_per_s"`
	AllocsPerRun uint64  `json:"allocs_per_run"`
	CPI          float64 `json:"cpi"`
	IPC          float64 `json:"ipc"`
	Cycles       uint64  `json:"cycles"`
	// DecomposeMS is the best of Runs timings of the penalty decomposition
	// (core.Decomposer.DecomposeAll) of the Records mispredictions of one
	// run recording them and its load levels, as decomposing sweeps run.
	// InstPerS is measured without that recording.
	DecomposeMS float64 `json:"decompose_ms"`
	Records     int     `json:"records"`
}

// sweepBench is the sweep-level metric: the wall-clock of an entire
// depth×ROB design-space sweep at a fixed predictor and cache hierarchy,
// run four ways over the same packed trace — live cycle-level simulation,
// cycle-level simulation replaying a shared miss-event overlay, SMARTS-style
// sampled simulation, and the analytic interval model evaluated straight off
// the overlay. Replay must reproduce live cycle counts exactly (checked);
// sampling trades exactness for a confidence interval, and the number of
// points whose CPI interval covers the full-run CPI is recorded alongside
// its speedup; the model trades exactness for orders-of-magnitude less work,
// and its mean CPI error vs live is recorded as the sanity bound. Setup
// costs (overlay computation, shared ILP characteristics) are charged to the
// timings they benefit.
type sweepBench struct {
	Benchmark      string  `json:"benchmark"`
	Insts          int     `json:"insts"`
	Points         int     `json:"points"`
	LiveSeconds    float64 `json:"live_s"`
	ReplaySeconds  float64 `json:"replay_s"`
	SampledSeconds float64 `json:"sampled_s"`
	ModelSeconds   float64 `json:"model_s"`
	ReplaySpeedup  float64 `json:"replay_speedup"`
	SampledSpeedup float64 `json:"sampled_speedup"`
	ModelSpeedup   float64 `json:"model_speedup"`
	ModelMeanErr   float64 `json:"model_cpi_mean_abs_err"`
	// Sampled-run accounting: the pinned phase lengths, the fewest
	// measurement units any point observed, how many of the Points'
	// 95% CPI intervals cover that point's full-run CPI, and the mean
	// absolute CPI error of the sampled point estimates vs live.
	SampledDetailed uint64  `json:"sampled_detailed"`
	SampledSkip     uint64  `json:"sampled_skip"`
	SampledMinUnits int     `json:"sampled_min_units"`
	SampledCovered  int     `json:"sampled_cpi_ci_covered"`
	SampledMeanErr  float64 `json:"sampled_cpi_mean_abs_err"`
}

// predPoint is one predictor preset of the direction-prediction timing
// matrix: the preset at its canonical sizing (BTB held out), driven over
// the crafty conditional-branch stream. PredPerS is raw Access calls per
// second — the per-branch cost the cycle-level frontend pays for this
// predictor family — and MPKI/accuracy record what that cost buys on the
// same stream, so a throughput regression and an accuracy regression are
// both visible in one row.
type predPoint struct {
	Kind        string  `json:"kind"`
	Entries     int     `json:"entries"`
	HistBits    uint    `json:"hist_bits"`
	StorageBits int64   `json:"storage_bits"`
	Branches    uint64  `json:"branches"`
	Runs        int     `json:"runs"`
	PredPerS    float64 `json:"pred_per_s"`
	MPKI        float64 `json:"mpki"`
	Accuracy    float64 `json:"accuracy"`
}

// vpredPoint is one value-predictor preset of the value-speculation timing
// matrix: the preset at its canonical sizing driven over crafty's eligible
// (load and register-writing ALU) instruction stream with the workload's own
// value stream. PredPerS is raw Access calls per second — the per-eligible-
// instruction cost a value-speculating overlay pre-pass or live run pays —
// and the hit/misspec rates record what that cost buys on the same stream.
type vpredPoint struct {
	Kind        string  `json:"kind"`
	Entries     int     `json:"entries"`
	StorageBits int64   `json:"storage_bits"`
	Eligible    uint64  `json:"eligible"`
	Runs        int     `json:"runs"`
	PredPerS    float64 `json:"pred_per_s"`
	HitRate     float64 `json:"hit_rate"`
	MisspecRate float64 `json:"misspec_rate"`
}

// clusterFleet is one fleet size of the cluster scale-out benchmark. Each
// fleet partitions the host's real cores across its daemons and is timed
// twice from cold — with peer cache fills off, then on — so the recorded
// delta is what fleet-native sharing is worth, and the fill counters say
// whether the fleet actually computed each artifact once.
type clusterFleet struct {
	Daemons    int    `json:"daemons"`
	Skipped    bool   `json:"skipped,omitempty"`
	SkipReason string `json:"skip_reason,omitempty"`
	// CoresPerDaemon is this fleet's per-daemon core budget (cores/daemons,
	// floored at 1) — the daemon's worker count. EffectiveCores is the
	// GOMAXPROCS pin during the timing: budget × daemons, never more than
	// the machine has.
	CoresPerDaemon int     `json:"cores_per_daemon"`
	EffectiveCores int     `json:"effective_cores"`
	Seconds        float64 `json:"seconds"`          // cold sweep, peer fills on
	NoShareSeconds float64 `json:"no_share_seconds"` // cold sweep, peer fills off
	Speedup        float64 `json:"speedup"`          // vs the 1-daemon fleet (fills on)
	Efficiency     float64 `json:"efficiency"`       // speedup / daemons
	Stolen         int     `json:"stolen_batches"`   // work-stealing activity (fills on)
	// Fleet-aggregated cache and peer-fill counters from the shared run.
	// Duplicate computations are OverlaysComputed beyond one per benchmark:
	// zero means every overlay was built exactly once fleet-wide and every
	// other daemon that needed it filled from a peer.
	TraceFills        uint64  `json:"peer_trace_fills"`
	OverlayFills      uint64  `json:"peer_overlay_fills"`
	TracesComputed    uint64  `json:"traces_computed"`
	OverlaysComputed  uint64  `json:"overlays_computed"`
	DuplicateOverlays uint64  `json:"duplicate_overlays"`
	OverlayHitRate    float64 `json:"overlay_hit_rate"`
	TraceHitRate      float64 `json:"trace_hit_rate"`
}

// clusterBench measures distributed-sweep scale-out honestly: a cold
// two-benchmark design-space grid dispatched through the cluster coordinator
// to fleets of 1, 2, and 4 in-process daemons. Honest means three things.
// The host's real cores are partitioned across each fleet (cores/daemons
// workers per daemon, GOMAXPROCS pinned to the fleet's effective total), so
// a bigger fleet never borrows parallelism the deployment story wouldn't
// have. Fleet sizes exceeding the physical core count are skipped and
// recorded as skipped, not timed as oversubscribed fictions. And every
// timing starts cold — private per-daemon trace caches, fresh overlay
// caches — so artifact computation is inside the measurement and the
// with/without-peer-fill delta is attributable to sharing alone.
type clusterBench struct {
	Benchmarks []string       `json:"benchmarks"`
	Insts      int            `json:"insts"`
	Points     int            `json:"points"` // total across benchmarks
	Cores      int            `json:"cores"`  // physical parallelism of the host
	Fleets     []clusterFleet `json:"fleets"`
}

// benchReport is the BENCH_simulator.json schema.
type benchReport struct {
	Quick      bool          `json:"quick"`
	GoVersion  string        `json:"go_version"`
	Config     string        `json:"config"`
	Points     []benchPoint  `json:"points"`
	Predictors []predPoint   `json:"predictors"`
	VPred      []vpredPoint  `json:"value_predictors"`
	Sweep      *sweepBench   `json:"sweep"`
	Cluster    *clusterBench `json:"cluster"`
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	quick := fs.Bool("quick", false, "smaller matrix for CI smoke runs")
	out := fs.String("o", "BENCH_simulator.json", "output JSON path (empty = stdout only)")
	runs := fs.Int("runs", 0, "repetitions per point (0 = auto: 3, or 2 with -quick)")
	showVersion := fs.Bool("version", false, "print the build identity and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *showVersion {
		fmt.Fprintln(stdout, "bench", version.String())
		return 0
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "bench: unexpected arguments %q\n", fs.Args())
		return 2
	}
	rep, err := run(*quick, *runs, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		data = append(data, '\n')
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %s\n", *out)
	}
	return 0
}

// matrix returns the pinned (benchmark, insts) workload set.
func matrix(quick bool) ([]string, int) {
	if quick {
		return []string{"gzip", "crafty"}, 200_000
	}
	return []string{"gzip", "mcf", "crafty", "twolf"}, 1_000_000
}

func run(quick bool, runs int, stdout io.Writer) (*benchReport, error) {
	if runs <= 0 {
		runs = 3
		if quick {
			runs = 2
		}
	}
	benches, insts := matrix(quick)
	cfg := uarch.Baseline()
	rep := &benchReport{Quick: quick, GoVersion: runtime.Version(), Config: cfg.Name}

	fmt.Fprintf(stdout, "%-10s %-8s %12s %14s %8s %13s\n", "benchmark", "path", "Minst/s", "allocs/run", "CPI", "decompose ms")
	for _, name := range benches {
		wc, ok := workload.SuiteConfig(name)
		if !ok {
			return nil, fmt.Errorf("unknown benchmark %q", name)
		}
		tr, err := trace.ReadAll(workload.MustNew(wc, insts))
		if err != nil {
			return nil, err
		}
		pt, err := measure(name, tr, cfg, runs)
		if err != nil {
			return nil, err
		}
		rep.Points = append(rep.Points, *pt)
		fmt.Fprintf(stdout, "%-10s %-8s %12.2f %14d %8.3f %13.2f\n",
			pt.Benchmark, pt.Path, pt.InstPerS/1e6, pt.AllocsPerRun, pt.CPI, pt.DecomposeMS)
	}
	preds, err := measurePredictors(quick, runs, stdout)
	if err != nil {
		return nil, err
	}
	rep.Predictors = preds
	vps, err := measureValuePredictors(quick, runs, stdout)
	if err != nil {
		return nil, err
	}
	rep.VPred = vps
	sw, err := measureSweep(quick)
	if err != nil {
		return nil, err
	}
	rep.Sweep = sw
	fmt.Fprintf(stdout, "sweep %s (%d pts, %d insts): live %.2fs, replay %.2fs (%.2fx), sampled %.2fs (%.2fx, %d/%d CI cover, |err| %.1f%%), model %.2fs (%.1fx), model CPI |err| %.1f%%\n",
		sw.Benchmark, sw.Points, sw.Insts, sw.LiveSeconds,
		sw.ReplaySeconds, sw.ReplaySpeedup,
		sw.SampledSeconds, sw.SampledSpeedup, sw.SampledCovered, sw.Points, sw.SampledMeanErr*100,
		sw.ModelSeconds, sw.ModelSpeedup, sw.ModelMeanErr*100)
	cb, err := measureCluster(quick, stdout)
	if err != nil {
		return nil, err
	}
	rep.Cluster = cb
	return rep, nil
}

// measureCluster times a cold two-benchmark sweep dispatched through the
// cluster coordinator to fleets of 1, 2, and 4 in-process daemons. Each
// fleet partitions the host's cores (cores/daemons workers per daemon,
// GOMAXPROCS pinned to the effective total) and is timed twice from cold:
// peer fills off, then on. Fleet sizes larger than the core count are
// recorded as skipped rather than timed oversubscribed.
func measureCluster(quick bool, stdout io.Writer) (*clusterBench, error) {
	benches := []string{"gzip", "crafty"}
	insts, widths, depths, robs := 400_000, []int{2, 4, 8}, []int{3, 7}, []int{64, 128}
	if quick {
		insts, widths, depths, robs = 100_000, []int{2, 4}, []int{3}, []int{64, 128}
	}
	fleets := []int{1, 2, 4}
	cb := &clusterBench{
		Benchmarks: benches,
		Insts:      insts,
		Points:     len(benches) * len(widths) * len(depths) * len(robs),
		Cores:      runtime.NumCPU(),
	}
	fmt.Fprintf(stdout, "cluster %v (%d pts, %d insts) on %d cores, cold, core-partitioned:\n",
		benches, cb.Points, insts, cb.Cores)

	for _, n := range fleets {
		if n > cb.Cores {
			fl := clusterFleet{
				Daemons: n, Skipped: true,
				SkipReason: fmt.Sprintf("%d daemons exceed %d physical cores", n, cb.Cores),
			}
			cb.Fleets = append(cb.Fleets, fl)
			fmt.Fprintf(stdout, "  %d daemon(s): skipped (%s)\n", n, fl.SkipReason)
			continue
		}
		fl := clusterFleet{Daemons: n, CoresPerDaemon: cb.Cores / n}
		fl.EffectiveCores = fl.CoresPerDaemon * n
		noShare, _, err := timeFleet(n, fl.CoresPerDaemon, false, benches, insts, widths, depths, robs)
		if err != nil {
			return nil, err
		}
		fl.NoShareSeconds = noShare
		secs, stats, err := timeFleet(n, fl.CoresPerDaemon, true, benches, insts, widths, depths, robs)
		if err != nil {
			return nil, err
		}
		fl.Seconds, fl.Stolen = secs, stats.Stolen
		fc := stats.Caches()
		fl.TraceFills, fl.OverlayFills = fc.TraceFills, fc.OverlayFills
		fl.TracesComputed, fl.OverlaysComputed = fc.TracesComputed, fc.OverlaysComputed
		if distinct := uint64(len(benches)); fc.OverlaysComputed > distinct {
			fl.DuplicateOverlays = fc.OverlaysComputed - distinct
		}
		fl.OverlayHitRate, fl.TraceHitRate = fc.OverlayHitRate(), fc.TraceHitRate()
		if len(cb.Fleets) > 0 && secs > 0 {
			base := cb.Fleets[0]
			if base.Seconds > 0 {
				fl.Speedup = base.Seconds / secs
				fl.Efficiency = fl.Speedup / float64(n)
			}
		} else if secs > 0 {
			fl.Speedup, fl.Efficiency = 1, 1
		}
		cb.Fleets = append(cb.Fleets, fl)
		fmt.Fprintf(stdout, "  %d daemon(s) @ %d cores each: no-share %.2fs, share %.2fs (%.2fx, eff %.2f); peer fills %d traces + %d overlays, computed %d/%d, dup overlays %d\n",
			n, fl.CoresPerDaemon, fl.NoShareSeconds, fl.Seconds, fl.Speedup, fl.Efficiency,
			fl.TraceFills, fl.OverlayFills, fl.TracesComputed, fl.OverlaysComputed, fl.DuplicateOverlays)
	}
	return cb, nil
}

// timeFleet boots n cold in-process daemons — each with its own private
// trace cache and cpd workers — and times one full distributed sweep, with
// GOMAXPROCS pinned to n × cpd for the duration (restored afterwards).
// The clock starts before any trace or overlay exists anywhere in the
// fleet: setup cost is inside the measurement on purpose, because the
// with/without-sharing delta lives in that setup. share toggles peer cache
// fills; the returned stats carry the end-of-run /metrics scrapes.
func timeFleet(n, cpd int, share bool, benches []string, insts int, widths, depths, robs []int) (float64, *cluster.RunStats, error) {
	prev := runtime.GOMAXPROCS(n * cpd)
	defer runtime.GOMAXPROCS(prev)
	ctx := context.Background()
	endpoints := make([]string, n)
	servers := make([]*httptest.Server, n)
	daemons := make([]*service.Server, n)
	for i := 0; i < n; i++ {
		// A private trace cache per daemon: in-process daemons must not
		// share artifacts through the process-wide memo, or the no-share
		// timing would be sharing through the back door.
		daemons[i] = service.New(service.Options{
			Workers:    cpd,
			TraceCache: experiments.NewTraceCache(2 * len(benches)),
		})
		servers[i] = httptest.NewServer(daemons[i].Handler())
		endpoints[i] = servers[i].URL
	}
	defer func() {
		for i := range servers {
			servers[i].Close()
			sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			daemons[i].Shutdown(sctx) //nolint:errcheck // bench teardown
			cancel()
		}
	}()

	t0 := time.Now()
	stats, err := cluster.Run(ctx, cluster.Options{
		Endpoints:       endpoints,
		Benches:         benches,
		Widths:          widths,
		Depths:          depths,
		ROBs:            robs,
		Insts:           insts,
		BatchSize:       1,
		KeepGoing:       true,
		DisablePeerFill: !share,
	}, func(*cluster.Row) error { return nil })
	if err != nil {
		return 0, nil, err
	}
	return time.Since(t0).Seconds(), stats, nil
}

// sweepGrid returns the pinned depth×ROB grid at fixed dispatch width and
// speculation configuration, the regime the overlay exists for.
func sweepGrid(quick bool) (string, int, []uarch.Config) {
	name, insts := "crafty", 1_000_000
	depths := []int{3, 5, 7, 9, 11}
	robs := []int{32, 64, 128, 256}
	if quick {
		insts = 200_000
		depths = []int{3, 7}
		robs = []int{64, 128}
	}
	var cfgs []uarch.Config
	for _, depth := range depths {
		for _, rob := range robs {
			cfg := uarch.Baseline()
			cfg.Name = fmt.Sprintf("d%d-r%d", depth, rob)
			cfg.FrontendDepth = depth
			cfg.ROBSize = rob
			cfg.IQSize = rob / 2
			cfgs = append(cfgs, cfg)
		}
	}
	return name, insts, cfgs
}

// measureSweep times the three sweep engines over the same grid and packed
// trace, single-threaded and in a fixed order, and cross-checks them:
// replay must be cycle-exact against live, and the model's CPI must stay
// within a loose sanity bound of the simulator's.
func measureSweep(quick bool) (*sweepBench, error) {
	name, insts, cfgs := sweepGrid(quick)
	wc, ok := workload.SuiteConfig(name)
	if !ok {
		return nil, fmt.Errorf("unknown benchmark %q", name)
	}
	soa, err := trace.PackReader(workload.MustNew(wc, insts))
	if err != nil {
		return nil, err
	}
	sw := &sweepBench{Benchmark: name, Insts: insts, Points: len(cfgs)}

	liveCPI := make([]float64, len(cfgs))
	liveCycles := make([]uint64, len(cfgs))
	t0 := time.Now()
	for i, cfg := range cfgs {
		res, err := uarch.Run(soa.Reader(), cfg, uarch.Options{})
		if err != nil {
			return nil, err
		}
		liveCPI[i], liveCycles[i] = res.CPI(), res.Cycles
	}
	sw.LiveSeconds = time.Since(t0).Seconds()

	// Every point shares the baseline predictor and cache geometry, so one
	// overlay, computed inside the replay timing, serves the whole grid and
	// the model below.
	base := uarch.Baseline()
	t1 := time.Now()
	ov, err := overlay.Compute(soa, base.Pred, base.Mem)
	if err != nil {
		return nil, err
	}
	for i, cfg := range cfgs {
		res, err := uarch.Run(soa.Reader(), cfg, uarch.Options{Overlay: ov})
		if err != nil {
			return nil, err
		}
		if res.Path != "soa+overlay" {
			return nil, fmt.Errorf("sweep point %s did not replay (path %q: %s)", cfg.Name, res.Path, res.Fallback)
		}
		if res.Cycles != liveCycles[i] {
			return nil, fmt.Errorf("sweep point %s: replay %d cycles, live %d", cfg.Name, res.Cycles, liveCycles[i])
		}
	}
	sw.ReplaySeconds = time.Since(t1).Seconds()

	// Sampled: each point simulated in detail only during short systematic
	// phases, with functional warming between them. No start-skip, so the
	// sampled estimate targets the same whole-run CPI the live sweep
	// measured; the confidence interval of every point should cover it.
	sw.SampledDetailed, sw.SampledSkip = sampledPhases(quick)
	var sampErr float64
	ts := time.Now()
	for i, cfg := range cfgs {
		res, err := uarch.Run(soa.Reader(), cfg, uarch.Options{
			SampleDetailed: sw.SampledDetailed,
			SampleSkip:     sw.SampledSkip,
		})
		if err != nil {
			return nil, err
		}
		if res.Sample == nil {
			return nil, fmt.Errorf("sampled point %s carried no sampling stats", cfg.Name)
		}
		if u := res.Sample.Units; sw.SampledMinUnits == 0 || u < sw.SampledMinUnits {
			sw.SampledMinUnits = u
		}
		if res.Sample.CPI.Covers(liveCPI[i]) {
			sw.SampledCovered++
		}
		sampErr += math.Abs(res.Sample.CPI.Mean-liveCPI[i]) / liveCPI[i]
	}
	sw.SampledSeconds = time.Since(ts).Seconds()
	sw.SampledMeanErr = sampErr / float64(len(cfgs))
	if sw.SampledCovered*10 < len(cfgs)*9 {
		return nil, fmt.Errorf("sampled sweep: only %d/%d CPI intervals cover the full-run CPI", sw.SampledCovered, len(cfgs))
	}

	maxROB := 0
	for _, cfg := range cfgs {
		if cfg.ROBSize > maxROB {
			maxROB = cfg.ROBSize
		}
	}
	var errSum float64
	t2 := time.Now()
	set, err := core.NewModelSet(soa, ov, base, maxROB, 0, insts)
	if err != nil {
		return nil, err
	}
	for i, cfg := range cfgs {
		m, prof, err := set.For(cfg)
		if err != nil {
			return nil, err
		}
		pred, err := m.PredictCPI(prof)
		if err != nil {
			return nil, err
		}
		errSum += math.Abs(pred.CPI()-liveCPI[i]) / liveCPI[i]
	}
	sw.ModelSeconds = time.Since(t2).Seconds()
	sw.ModelMeanErr = errSum / float64(len(cfgs))
	if sw.ModelMeanErr > 0.25 {
		return nil, fmt.Errorf("model sweep mean CPI error %.1f%% exceeds sanity bound", sw.ModelMeanErr*100)
	}
	if sw.ReplaySeconds > 0 {
		sw.ReplaySpeedup = sw.LiveSeconds / sw.ReplaySeconds
	}
	if sw.SampledSeconds > 0 {
		sw.SampledSpeedup = sw.LiveSeconds / sw.SampledSeconds
	}
	if sw.ModelSeconds > 0 {
		sw.ModelSpeedup = sw.LiveSeconds / sw.ModelSeconds
	}
	return sw, nil
}

// sampledPhases returns the pinned detailed/fast-forward phase lengths of
// the sampled sweep timing: a 1-in-20 detail fraction, long enough phases
// that functional warming dominates the cost, short enough that the full
// grid still observes tens of measurement units per point.
func sampledPhases(quick bool) (detailed, skip uint64) {
	if quick {
		return 2_000, 18_000
	}
	return 2_000, 38_000
}

// measure runs one matrix point `runs` times and keeps the best throughput
// (least-interfered run) and the fewest allocations a run made: the
// allocation count is read process-wide, so a stray runtime allocation can
// only add to it. A warmup run is excluded so one-time pool growth doesn't
// count against steady state.
// It then decomposes the mispredictions of one recorded run `runs` times
// and keeps the fastest.
func measure(bench string, tr *trace.Trace, cfg uarch.Config, runs int) (*benchPoint, error) {
	soa := trace.Pack(tr)
	res, err := uarch.Run(soa.Reader(), cfg, uarch.Options{}) // warmup, excluded
	if err != nil {
		return nil, err
	}
	var best float64
	allocs := uint64(math.MaxUint64)
	var ms0, ms1 runtime.MemStats
	for i := 0; i < runs; i++ {
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		res, err = uarch.Run(soa.Reader(), cfg, uarch.Options{})
		if err != nil {
			return nil, err
		}
		dur := time.Since(t0)
		runtime.ReadMemStats(&ms1)
		allocs = min(allocs, ms1.Mallocs-ms0.Mallocs)
		if ips := float64(res.Insts) / dur.Seconds(); ips > best {
			best = ips
		}
	}
	pt := &benchPoint{
		Benchmark:    bench,
		Path:         res.Path,
		Insts:        res.Insts,
		Runs:         runs,
		InstPerS:     best,
		AllocsPerRun: allocs,
		CPI:          res.CPI(),
		IPC:          res.IPC(),
		Cycles:       res.Cycles,
	}
	rec, err := uarch.Run(soa.Reader(), cfg, uarch.Options{RecordMispredicts: true, RecordLoadLevels: true})
	if err != nil {
		return nil, err
	}
	dec, err := core.NewDecomposer(tr, rec)
	if err != nil {
		return nil, err
	}
	pt.Records = len(rec.Records)
	for i := 0; i < runs; i++ {
		t0 := time.Now()
		dec.DecomposeAll()
		if ms := float64(time.Since(t0)) / float64(time.Millisecond); i == 0 || ms < pt.DecomposeMS {
			pt.DecomposeMS = ms
		}
	}
	return pt, nil
}

// measurePredictors times every stateful predictor preset over the crafty
// conditional-branch stream, extracted once from the packed trace so only
// the predictor's Access path is inside the clock. The BTB is held out of
// every preset (direction prediction only), the accuracy is counted on the
// same timed pass, and the best of `runs` repetitions is kept, mirroring
// the matrix points. Static kinds (perfect, taken, not-taken) hold no
// state and are skipped — their cost is a compare, not a table walk.
func measurePredictors(quick bool, runs int, stdout io.Writer) ([]predPoint, error) {
	_, insts := matrix(quick)
	wc, ok := workload.SuiteConfig("crafty")
	if !ok {
		return nil, fmt.Errorf("unknown benchmark %q", "crafty")
	}
	soa, err := trace.PackReader(workload.MustNew(wc, insts))
	if err != nil {
		return nil, err
	}
	var pcs []uint64
	var takens []bool
	for i := 0; i < soa.Len(); i++ {
		if soa.Class(i) != isa.Branch {
			continue
		}
		pcs = append(pcs, soa.PC[i])
		takens = append(takens, soa.Taken(i))
	}
	fmt.Fprintf(stdout, "%-12s %8s %12s %12s %8s %10s\n", "predictor", "entries", "storage", "Mpred/s", "MPKI", "accuracy")
	var out []predPoint
	for _, name := range bpred.PresetNames() {
		spec, _ := bpred.Preset(name)
		if spec.StorageBits() == 0 {
			continue
		}
		spec.BTBEntries = 0
		pt := predPoint{
			Kind:        name,
			Entries:     spec.Entries,
			HistBits:    spec.HistBits,
			StorageBits: spec.StorageBits(),
			Branches:    uint64(len(pcs)),
			Runs:        runs,
		}
		var miss uint64
		for r := 0; r < runs; r++ {
			unit, err := spec.Build()
			if err != nil {
				return nil, err
			}
			dir := unit.Dir
			miss = 0
			t0 := time.Now()
			for i, pc := range pcs {
				if !dir.Access(pc, takens[i]) {
					miss++
				}
			}
			if pps := float64(len(pcs)) / time.Since(t0).Seconds(); pps > pt.PredPerS {
				pt.PredPerS = pps
			}
		}
		pt.MPKI = float64(miss) / float64(insts) * 1000
		if len(pcs) > 0 {
			pt.Accuracy = 1 - float64(miss)/float64(len(pcs))
		}
		fmt.Fprintf(stdout, "%-12s %8d %10.1f KB %12.2f %8.2f %10.3f\n",
			pt.Kind, pt.Entries, float64(pt.StorageBits)/8/1024, pt.PredPerS/1e6, pt.MPKI, pt.Accuracy)
		out = append(out, pt)
	}
	return out, nil
}

// measureValuePredictors times every value-predictor preset over crafty's
// eligible instruction stream (loads and register-writing ALU ops — the
// instructions overlay.VPredEligible admits), extracted once from the packed
// trace so only the Runner's Access path is inside the clock. The stream is
// the workload's own value stream, the hit/misspec rates are counted on the
// same timed pass, and the best of `runs` repetitions is kept, mirroring
// measurePredictors.
func measureValuePredictors(quick bool, runs int, stdout io.Writer) ([]vpredPoint, error) {
	_, insts := matrix(quick)
	wc, ok := workload.SuiteConfig("crafty")
	if !ok {
		return nil, fmt.Errorf("unknown benchmark %q", "crafty")
	}
	soa, err := trace.PackReader(workload.MustNew(wc, insts))
	if err != nil {
		return nil, err
	}
	var pcs []uint64
	for i := 0; i < soa.Len(); i++ {
		if overlay.VPredEligible(soa.Class(i), soa.Dst[i]) {
			pcs = append(pcs, soa.PC[i])
		}
	}
	fmt.Fprintf(stdout, "%-12s %8s %12s %12s %10s %10s\n", "vpredictor", "entries", "storage", "Mpred/s", "hit rate", "misspec")
	var out []vpredPoint
	for _, name := range vpred.PresetNames() {
		cfg, _ := vpred.Preset(name)
		cfg.Stream = wc.ValueStream()
		pt := vpredPoint{
			Kind:        name,
			Entries:     cfg.Entries,
			StorageBits: cfg.StorageBits(),
			Eligible:    uint64(len(pcs)),
			Runs:        runs,
		}
		var hits, misspecs uint64
		for r := 0; r < runs; r++ {
			runner, err := vpred.NewRunner(cfg)
			if err != nil {
				return nil, err
			}
			hits, misspecs = 0, 0
			t0 := time.Now()
			for _, pc := range pcs {
				switch runner.Access(pc) {
				case vpred.Hit:
					hits++
				case vpred.Miss:
					misspecs++
				}
			}
			if pps := float64(len(pcs)) / time.Since(t0).Seconds(); pps > pt.PredPerS {
				pt.PredPerS = pps
			}
		}
		if len(pcs) > 0 {
			pt.HitRate = float64(hits) / float64(len(pcs))
			pt.MisspecRate = float64(misspecs) / float64(len(pcs))
		}
		fmt.Fprintf(stdout, "%-12s %8d %10.1f KB %12.2f %10.3f %10.3f\n",
			pt.Kind, pt.Entries, float64(pt.StorageBits)/8/1024, pt.PredPerS/1e6, pt.HitRate, pt.MisspecRate)
		out = append(out, pt)
	}
	return out, nil
}
