// Command sweep explores the design space: it runs one benchmark over a
// grid of (dispatch width, frontend depth, ROB size) points and emits a CSV
// of IPC and misprediction-penalty statistics, ready for plotting. This is
// the "what if" harness interval analysis exists to support: the penalty
// columns show how the five contributors shift across the design space.
//
// Three engines are available. The default (-mode sim) runs the cycle-level
// simulator at every point, replaying branch-predictor and I-cache outcomes
// from a miss-event overlay computed once for the whole grid (the grid
// varies only timing parameters, so speculation outcomes are shared). -mode
// sampled runs SMARTS-style systematic sampling at every point (detailed
// phases with functional warming in between) and emits CPI with its
// confidence interval instead of the penalty decomposition — a fraction of
// the wall clock at quantified statistical precision. -mode model skips the detailed simulator
// entirely: it evaluates the analytic interval model at every point from the
// same shared overlay plus ILP characteristics profiled once per dispatch
// width — minutes of simulation become seconds of arithmetic, at the model's
// accuracy rather than the simulator's.
//
// Each point is evaluated by service.EvalPoint and its row written by
// cluster.CSVSink: the evaluator and renderer the intervalsimd daemon and
// the fleet coordinator use, so an in-process sweep and a distributed one
// (-endpoints, or sweepctl) write the same CSV by construction. Points run
// in parallel on a fail-soft worker pool: a design point that fails (or
// hangs past -timeout) is reported on stderr while every other point's CSV
// row is still emitted, in grid order, byte-identical to a serial run. The
// exit code is 0 only when every point succeeded. After the grid, stderr
// summarizes which simulator paths ran (packed trace, overlay replay) and
// any fast-path fallbacks, so a sweep that silently degraded to a slower
// path is visible.
//
// Usage:
//
//	sweep [-bench crafty] [-mode sim|sampled|model] [-insts N] [-warmup N] [-j N] [-timeout D] [-keep-going] > sweep.csv
//
// Exit codes: 0 success, 1 runtime error or failed points, 2 usage error.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"intervalsim/internal/bpred"
	"intervalsim/internal/cluster"
	"intervalsim/internal/core"
	"intervalsim/internal/experiments"
	"intervalsim/internal/harness"
	"intervalsim/internal/service"
	"intervalsim/internal/uarch"
	"intervalsim/internal/version"
	"intervalsim/internal/vpred"
	"intervalsim/internal/workload"
)

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

// testPointHook, when non-nil, mutates each grid point's configuration just
// before simulation. Tests use it to inject deliberately broken design
// points and assert the fail-soft behavior.
var testPointHook func(cfg *uarch.Config)

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	bench := fs.String("bench", "crafty", "benchmark to sweep")
	pred := fs.String("pred", "", "branch predictor preset for every grid point (e.g. tage, 2bc-gskew, gshare; empty = baseline tournament)")
	vpredName := fs.String("vpred", "", "value predictor preset for every grid point (e.g. last-value, stride, fcm; empty = no value speculation)")
	fetchRate := fs.Float64("fetchrate", 0, "fetch rate after low-confidence branches, in (0, 1] (0 = full rate, no throttling)")
	mode := fs.String("mode", "sim", "engine per grid point: sim (cycle-level), sampled (systematic sampling with confidence intervals), or model (analytic interval model)")
	insts := fs.Int("insts", 1_000_000, "dynamic instructions per point")
	warmup := fs.Uint64("warmup", 200_000, "warmup instructions per point (the initial functional skip in sampled mode)")
	sampleDetailed := fs.Uint64("sample-detailed", 2_000, "instructions per detailed phase (-mode sampled)")
	sampleSkip := fs.Uint64("sample-skip", 18_000, "instructions functionally warmed between detailed phases (-mode sampled)")
	jobs := fs.Int("j", runtime.GOMAXPROCS(0), "design points simulated in parallel")
	keepGoing := fs.Bool("keep-going", true, "continue past failed design points (successful rows are always emitted)")
	timeout := fs.Duration("timeout", 0, "wall-clock deadline per design point (0 = none; under -endpoints, rounded up to whole milliseconds, and 0 = the daemon's default deadline)")
	retries := fs.Int("retries", 0, "retries per transiently failing point")
	endpoints := fs.String("endpoints", "", "comma-separated intervalsimd endpoints: shard the sweep across a fleet instead of simulating in-process (see sweepctl for full control)")
	showVersion := fs.Bool("version", false, "print the build identity and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *showVersion {
		fmt.Fprintln(stdout, "sweep", version.String())
		return 0
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "sweep: unexpected arguments %q\n", fs.Args())
		return 2
	}
	wc, ok := workload.SuiteConfig(*bench)
	if !ok {
		fmt.Fprintf(stderr, "sweep: unknown benchmark %q\n", *bench)
		return 2
	}
	switch *mode {
	case "sim", "model", "sampled":
	default:
		fmt.Fprintf(stderr, "sweep: unknown mode %q (want sim, sampled or model)\n", *mode)
		return 2
	}
	if *mode == "sampled" && (*sampleDetailed == 0 || *sampleSkip == 0) {
		fmt.Fprintf(stderr, "sweep: -sample-detailed and -sample-skip must be positive in sampled mode\n")
		return 2
	}
	if *pred != "" {
		if _, ok := bpred.Preset(*pred); !ok {
			fmt.Fprintf(stderr, "sweep: unknown predictor preset %q (want one of %s)\n",
				*pred, strings.Join(bpred.PresetNames(), ", "))
			return 2
		}
	}
	if *vpredName != "" {
		if _, ok := vpred.Preset(*vpredName); !ok {
			fmt.Fprintf(stderr, "sweep: unknown value predictor preset %q (want one of %s)\n",
				*vpredName, strings.Join(vpred.PresetNames(), ", "))
			return 2
		}
	}
	if *fetchRate < 0 || *fetchRate > 1 {
		fmt.Fprintf(stderr, "sweep: -fetchrate %v outside (0, 1]\n", *fetchRate)
		return 2
	}
	params := sweepParams{
		mode:           *mode,
		insts:          *insts,
		warmup:         *warmup,
		pred:           *pred,
		vpred:          *vpredName,
		fetchRate:      *fetchRate,
		sampleDetailed: *sampleDetailed,
		sampleSkip:     *sampleSkip,
	}
	if *endpoints != "" {
		return runCluster(stdout, stderr, *endpoints, *bench, params, *timeout, *retries, *keepGoing)
	}
	err := run(context.Background(), stdout, stderr, wc, params, harness.Options{
		Workers:   *jobs,
		Timeout:   *timeout,
		Retries:   *retries,
		KeepGoing: *keepGoing,
	})
	if err != nil {
		fmt.Fprintln(stderr, "sweep:", err)
		return 1
	}
	return 0
}

// sweepParams bundles the engine selection of one sweep invocation.
type sweepParams struct {
	mode           string
	insts          int
	warmup         uint64
	pred           string  // predictor preset name; "" = baseline tournament
	vpred          string  // value predictor preset name; "" = no value speculation
	fetchRate      float64 // post-low-confidence-branch fetch rate; 0 = full
	sampleDetailed uint64
	sampleSkip     uint64
}

// runCluster delegates the sweep to a fleet of intervalsimd daemons through
// the cluster coordinator. The grid and the CSV output are exactly the
// in-process sweep's; only the execution is distributed, so the bytes on
// stdout must not depend on which path ran.
func runCluster(stdout, stderr io.Writer, endpoints, bench string, p sweepParams, timeout time.Duration, retries int, keepGoing bool) int {
	var eps []string
	for _, ep := range strings.Split(endpoints, ",") {
		if ep = strings.TrimSpace(ep); ep != "" {
			eps = append(eps, ep)
		}
	}
	widths, depths, robs := service.DefaultAxes()
	sink := cluster.NewCSVSink(stdout, p.mode, false)
	stats, runErr := cluster.Run(context.Background(), cluster.Options{
		Endpoints:      eps,
		Benches:        []string{bench},
		Widths:         widths,
		Depths:         depths,
		ROBs:           robs,
		Mode:           p.mode,
		Insts:          p.insts,
		Warmup:         p.warmup,
		Pred:           p.pred,
		VPred:          p.vpred,
		FetchRate:      p.fetchRate,
		SampleDetailed: p.sampleDetailed,
		SampleSkip:     p.sampleSkip,
		PointTimeout:   timeout,
		Retries:        retries,
		KeepGoing:      keepGoing,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(stderr, format+"\n", args...)
		},
	}, sink.Emit)
	if stats != nil {
		if err := sink.Finish(); err != nil && runErr == nil {
			runErr = err
		}
		stats.FprintSummary(stderr)
	}
	if runErr != nil {
		fmt.Fprintln(stderr, "sweep:", runErr)
		return 1
	}
	return 0
}

// permanent marks the failures that retrying cannot fix, so they never
// consume the retry budget: every model error, invalid configurations,
// watchdog trips and bad analysis inputs are deterministic.
func permanent(mode string, err error) error {
	if mode == "model" || errors.Is(err, uarch.ErrBadConfig) || errors.Is(err, uarch.ErrWatchdog) || errors.Is(err, core.ErrBadInput) {
		return harness.Permanent(err)
	}
	return err
}

// summarizePaths reports which simulator execution paths the grid's points
// took, and any fast-path fallbacks. Model points run no simulator.
func summarizePaths(w io.Writer, results []harness.Result[service.BatchPoint]) {
	paths, fallbacks := make(map[string]int), make(map[string]int)
	for _, r := range results {
		if r.Err != nil || r.Value.Path == "model" {
			continue
		}
		paths[r.Value.Path]++
		if r.Value.Fallback != "" {
			fallbacks[r.Value.Fallback]++
		}
	}
	if len(paths) == 0 {
		return
	}
	var parts []string
	for p, n := range paths {
		parts = append(parts, fmt.Sprintf("%d×%s", n, p))
	}
	sort.Strings(parts)
	fmt.Fprintf(w, "sweep: simulator paths: %s\n", strings.Join(parts, ", "))
	var reasons []string
	for r := range fallbacks {
		reasons = append(reasons, r)
	}
	sort.Strings(reasons)
	for _, r := range reasons {
		fmt.Fprintf(w, "sweep: %d× fallback: %s\n", fallbacks[r], r)
	}
}

func run(ctx context.Context, stdout, stderr io.Writer, wc workload.Config, p sweepParams, hopts harness.Options) error {
	// Generate and pack the trace once, through the process-wide trace
	// cache: every grid point reuses the struct-of-arrays layout and its
	// precomputed dependence metadata (the simulator's index-based fast
	// path), and the decomposer reads the record layout.
	t, err := experiments.DefaultTraceCache.SharedVia(wc, p.insts, nil)
	if err != nil {
		return err
	}
	a := &service.SweepArtifacts{
		Mode:           p.mode,
		Decompose:      p.mode == "sim",
		Warmup:         p.warmup,
		SampleDetailed: p.sampleDetailed,
		SampleSkip:     p.sampleSkip,
		SoA:            t.SoA,
	}

	// The grid varies only timing parameters — every point shares one
	// predictor (the -pred preset, or the baseline tournament) and cache
	// geometry — so one miss-event overlay serves the whole sweep. A point
	// whose speculation configuration diverges (e.g. via testPointHook) is
	// caught by the simulator's fingerprint check and falls back to live
	// simulation, which the path summary below makes visible. The simulator
	// ignores an overlay in a fast-forwarded run (its fallback rule
	// "overlay ignored: sampled/fast-forwarded run"), so sampled mode never
	// computes the overlay at all.
	base := uarch.Baseline()
	if p.pred != "" {
		preset, ok := bpred.Preset(p.pred)
		if !ok {
			return fmt.Errorf("unknown predictor preset %q", p.pred)
		}
		base.Pred = preset
	}
	if p.vpred != "" {
		preset, ok := vpred.Preset(p.vpred)
		if !ok {
			return fmt.Errorf("unknown value predictor preset %q", p.vpred)
		}
		// The preset carries predictor geometry only; the value stream is the
		// workload's, so the same preset means the same run everywhere.
		preset.Stream = wc.ValueStream()
		base.VPred = &preset
	}
	base.FetchRate = p.fetchRate
	widths, depths, robs := service.DefaultAxes()
	points := service.Grid(widths, depths, robs)
	if p.mode != "sampled" {
		if a.Overlay, err = t.Overlay(base.Pred, base.Mem, base.VPred, nil); err != nil {
			return err
		}
	}
	switch p.mode {
	case "sim":
		a.Trace = t.Trace // AoS view for the decomposer
	case "model":
		if a.Models, err = t.ModelSet(a.Overlay, base, slices.Max(robs), p.warmup, p.insts); err != nil {
			return err
		}
	}

	jobs := make([]harness.Job[service.BatchPoint], len(points))
	for i, sp := range points {
		cfg := experiments.Point(sp.Width, sp.Depth, sp.ROB)
		cfg.Pred = base.Pred
		cfg.VPred = base.VPred
		cfg.FetchRate = base.FetchRate
		if testPointHook != nil {
			testPointHook(&cfg)
		}
		jobs[i] = harness.Job[service.BatchPoint]{
			Name: cfg.Name,
			Run: func(ctx context.Context) (service.BatchPoint, error) {
				pt := service.BatchPoint{Seq: sp.Seq, Width: sp.Width, Depth: sp.Depth, ROB: sp.ROB}
				err := service.EvalPoint(ctx, a, cfg, &pt)
				return pt, permanent(p.mode, err)
			},
		}
	}

	results, runErr := harness.Run(ctx, jobs, hopts)

	// Fail-soft emission: every completed row, in grid order.
	sink := cluster.NewCSVSink(stdout, p.mode, false)
	for _, r := range results {
		if r.Err == nil {
			if err := sink.Emit(&cluster.Row{Point: r.Value}); err != nil {
				return err
			}
		}
	}
	if err := sink.Finish(); err != nil {
		return err
	}
	harness.Summarize(stderr, results)
	summarizePaths(stderr, results)
	if oc := experiments.DefaultTraceCache.OverlayCounters(); oc.Hits+oc.Misses > 0 {
		fmt.Fprintf(stderr, "sweep: overlay cache: %d hits, %d misses\n", oc.Hits, oc.Misses)
	}
	return runErr
}
