// Command sweepctl orchestrates a design-space sweep across a fleet of
// intervalsimd daemons. It shards the grid into workload-keyed batches (so
// each daemon's trace and overlay caches stay hot), dispatches them over
// HTTP with health checks, retry with backoff, and 429/Retry-After
// admission pushback, steals work from slow or dead nodes, and streams the
// merged results in canonical sweep order — for a single benchmark,
// byte-identical to running cmd/sweep on one machine.
//
// Usage:
//
//	sweepctl -endpoints host:8080,host:8081 [-bench crafty,gcc] [-mode sim|model]
//	         [-insts N] [-warmup N] [-widths 2,4,8] [-depths 3,7,11] [-robs 64,128,256]
//	         [-batch N] [-timeout D] [-retries N] [-keep-going] [-steal-after D]
//	         [-format csv|ndjson] [-dry-run] > sweep.csv
//
// -dry-run prints the shard plan — which batches would go to which endpoint
// — without dispatching anything. The end-of-sweep fleet summary (per-node
// throughput, dispatch latency quantiles, cache hit rates) goes to stderr.
//
// Exit codes: 0 success, 1 runtime error or failed points, 2 usage error.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"intervalsim/internal/bpred"
	"intervalsim/internal/cluster"
	"intervalsim/internal/version"
	"intervalsim/internal/vpred"
	"intervalsim/internal/workload"
)

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

// splitList parses a comma-separated list, dropping empty elements.
func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

// splitInts parses a comma-separated list of positive integers.
func splitInts(s string) ([]int, error) {
	var out []int
	for _, f := range splitList(s) {
		n, err := strconv.Atoi(f)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad axis value %q (want positive integers)", f)
		}
		out = append(out, n)
	}
	return out, nil
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sweepctl", flag.ContinueOnError)
	fs.SetOutput(stderr)
	endpoints := fs.String("endpoints", "", "comma-separated intervalsimd endpoints (host:port or URL)")
	bench := fs.String("bench", "crafty", "comma-separated benchmarks to sweep")
	mode := fs.String("mode", "sim", "engine per grid point: sim (cycle-level) or model (analytic interval model)")
	insts := fs.Int("insts", 1_000_000, "dynamic instructions per point")
	warmup := fs.Uint64("warmup", 200_000, "warmup instructions per point")
	pred := fs.String("pred", "", "branch predictor preset for every grid point (e.g. tage, 2bc-gskew; empty = baseline tournament)")
	vpredName := fs.String("vpred", "", "value predictor preset for every grid point (e.g. last-value, stride, fcm; empty = no value speculation)")
	fetchRate := fs.Float64("fetchrate", 0, "fetch rate after low-confidence branches, in (0, 1] (0 = full rate)")
	widths := fs.String("widths", "2,4,8", "dispatch-width axis")
	depths := fs.String("depths", "3,7,11", "frontend-depth axis")
	robs := fs.String("robs", "64,128,256", "ROB-size axis")
	batch := fs.Int("batch", 0, "design points per dispatched shard (0 = auto)")
	timeout := fs.Duration("timeout", 0, "wall-clock deadline per design point on the daemon (0 = the daemon's default deadline)")
	retries := fs.Int("retries", 1, "dispatch retries per batch per node before handing it back to the fleet")
	keepGoing := fs.Bool("keep-going", true, "continue past failed design points (successful rows are always emitted)")
	stealAfter := fs.Duration("steal-after", 5*time.Second, "steal a batch from a node after it has been in flight this long")
	ringReplicas := fs.Int("ring-replicas", 0, "consistent-hash virtual nodes per endpoint (0 = default 64)")
	peerFill := fs.Bool("peer-fill", true, "advertise the fleet to each daemon so they fill trace/overlay caches from peers")
	format := fs.String("format", "csv", "output format: csv (cmd/sweep-compatible) or ndjson (raw values)")
	dryRun := fs.Bool("dry-run", false, "print the shard plan and ring assignment without dispatching")
	showVersion := fs.Bool("version", false, "print the build identity and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *showVersion {
		fmt.Fprintln(stdout, "sweepctl", version.String())
		return 0
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "sweepctl: unexpected arguments %q\n", fs.Args())
		return 2
	}

	eps := splitList(*endpoints)
	if len(eps) == 0 {
		fmt.Fprintln(stderr, "sweepctl: -endpoints is required (comma-separated daemon addresses)")
		return 2
	}
	benches := splitList(*bench)
	if len(benches) == 0 {
		fmt.Fprintln(stderr, "sweepctl: -bench names no benchmarks")
		return 2
	}
	for _, b := range benches {
		if _, ok := workload.SuiteConfig(b); !ok {
			fmt.Fprintf(stderr, "sweepctl: unknown benchmark %q\n", b)
			return 2
		}
	}
	if *mode != "sim" && *mode != "model" {
		fmt.Fprintf(stderr, "sweepctl: unknown mode %q (want sim or model)\n", *mode)
		return 2
	}
	if *format != "csv" && *format != "ndjson" {
		fmt.Fprintf(stderr, "sweepctl: unknown format %q (want csv or ndjson)\n", *format)
		return 2
	}
	if *ringReplicas < 0 {
		fmt.Fprintf(stderr, "sweepctl: bad -ring-replicas %d (want a positive count, or 0 for the default)\n", *ringReplicas)
		return 2
	}
	if *pred != "" {
		if _, ok := bpred.Preset(*pred); !ok {
			fmt.Fprintf(stderr, "sweepctl: unknown predictor preset %q (want one of %s)\n",
				*pred, strings.Join(bpred.PresetNames(), ", "))
			return 2
		}
	}
	if *vpredName != "" {
		if _, ok := vpred.Preset(*vpredName); !ok {
			fmt.Fprintf(stderr, "sweepctl: unknown value predictor preset %q (want one of %s)\n",
				*vpredName, strings.Join(vpred.PresetNames(), ", "))
			return 2
		}
	}
	if *fetchRate < 0 || *fetchRate > 1 {
		fmt.Fprintf(stderr, "sweepctl: -fetchrate %v outside (0, 1]\n", *fetchRate)
		return 2
	}
	ws, err := splitInts(*widths)
	if err == nil && len(ws) == 0 {
		err = fmt.Errorf("empty -widths")
	}
	var ds, rs []int
	if err == nil {
		ds, err = splitInts(*depths)
		if err == nil && len(ds) == 0 {
			err = fmt.Errorf("empty -depths")
		}
	}
	if err == nil {
		rs, err = splitInts(*robs)
		if err == nil && len(rs) == 0 {
			err = fmt.Errorf("empty -robs")
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "sweepctl:", err)
		return 2
	}

	if *dryRun {
		// Hash the same normalized base URLs the live run hashes, so the
		// printed ring assignment matches what a real dispatch would do.
		bases := make([]string, len(eps))
		for i, e := range eps {
			bases[i] = cluster.NewClient(e).Base
		}
		plan, err := cluster.BuildPlan(bases, benches, ws, ds, rs, *batch, *ringReplicas)
		if err != nil {
			fmt.Fprintln(stderr, "sweepctl:", err)
			return 1
		}
		plan.Fprint(stdout)
		plan.FprintRing(stdout)
		return 0
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	opts := cluster.Options{
		Endpoints:       eps,
		Benches:         benches,
		Widths:          ws,
		Depths:          ds,
		ROBs:            rs,
		Mode:            *mode,
		Insts:           *insts,
		Warmup:          *warmup,
		Pred:            *pred,
		VPred:           *vpredName,
		FetchRate:       *fetchRate,
		BatchSize:       *batch,
		PointTimeout:    *timeout,
		Retries:         *retries,
		KeepGoing:       *keepGoing,
		StealAfter:      *stealAfter,
		RingReplicas:    *ringReplicas,
		DisablePeerFill: !*peerFill,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(stderr, format+"\n", args...)
		},
	}

	var (
		emit   func(*cluster.Row) error
		finish func() error
	)
	switch *format {
	case "csv":
		sink := cluster.NewCSVSink(stdout, *mode, len(benches) > 1)
		emit, finish = sink.Emit, sink.Finish
	case "ndjson":
		sink := cluster.NewNDJSONSink(stdout)
		emit, finish = sink.Emit, func() error { return nil }
	}

	stats, runErr := cluster.Run(ctx, opts, emit)
	if stats != nil {
		if err := finish(); err != nil && runErr == nil {
			runErr = err
		}
		stats.FprintSummary(stderr)
	}
	if runErr != nil {
		fmt.Fprintln(stderr, "sweepctl:", runErr)
		return 1
	}
	return 0
}
