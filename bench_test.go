// Benchmark harness: one testing.B benchmark per table/figure of the paper
// (the E*/T* experiment index in DESIGN.md), plus microbenchmarks for the
// substrates. Each experiment benchmark performs one full regeneration of
// its table per iteration at reduced sizing; run
//
//	go test -bench=. -benchmem
//
// for the whole set, or e.g. -bench=BenchmarkE5Decomposition for one. The
// full-size tables in EXPERIMENTS.md come from cmd/experiments.
package intervalsim_test

import (
	"fmt"
	"io"
	"testing"

	"intervalsim/internal/bpred"
	"intervalsim/internal/cache"
	"intervalsim/internal/core"
	"intervalsim/internal/experiments"
	"intervalsim/internal/ilp"
	"intervalsim/internal/overlay"
	"intervalsim/internal/predictability"
	"intervalsim/internal/trace"
	"intervalsim/internal/uarch"
	"intervalsim/internal/vpred"
	"intervalsim/internal/workload"
)

// benchParams keeps one iteration of an experiment benchmark around a
// second, so the full -bench=. sweep stays tractable.
func benchParams() experiments.Params { return experiments.QuickParams() }

func runExperiment(b *testing.B, fn func(io.Writer, experiments.Params) error) {
	b.Helper()
	p := benchParams()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fn(io.Discard, p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkT2Characterization(b *testing.B) { runExperiment(b, experiments.T2) }
func BenchmarkE1IntervalTimeline(b *testing.B) { runExperiment(b, experiments.E1) }
func BenchmarkE2IntervalLengths(b *testing.B)  { runExperiment(b, experiments.E2) }
func BenchmarkE3AvgPenalty(b *testing.B)       { runExperiment(b, experiments.E3) }
func BenchmarkE4PenaltyVsInterval(b *testing.B) {
	runExperiment(b, experiments.E4)
}
func BenchmarkE5Decomposition(b *testing.B)   { runExperiment(b, experiments.E5) }
func BenchmarkE6ILPSweep(b *testing.B)        { runExperiment(b, experiments.E6) }
func BenchmarkE7FULatency(b *testing.B)       { runExperiment(b, experiments.E7) }
func BenchmarkE8ShortDMiss(b *testing.B)      { runExperiment(b, experiments.E8) }
func BenchmarkE9ModelValidation(b *testing.B) { runExperiment(b, experiments.E9) }
func BenchmarkE10DepthROB(b *testing.B)       { runExperiment(b, experiments.E10) }

// --- Substrate microbenchmarks ------------------------------------------

// BenchmarkSimulator measures raw cycle-level simulation speed on a mixed
// workload; the metric that bounds every experiment above. It exercises the
// struct-of-arrays fast path (trace packed once, reused every iteration —
// exactly how sweeps run many configurations over one trace).
func BenchmarkSimulator(b *testing.B) {
	wc, _ := workload.SuiteConfig("crafty")
	tr, err := trace.ReadAll(workload.MustNew(wc, 200_000))
	if err != nil {
		b.Fatal(err)
	}
	soa := trace.Pack(tr)
	cfg := uarch.Baseline()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := uarch.Run(soa.Reader(), cfg, uarch.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(res.Insts)*float64(b.N), "insts")
		}
	}
	b.ReportMetric(float64(soa.Len())*float64(b.N)/b.Elapsed().Seconds()/1e6, "Minst/s")
}

// BenchmarkSimulatorReplay measures the overlay-replay fast path: identical
// cycle-level results to BenchmarkSimulator, with branch-predictor and
// I-cache outcomes replayed from a precomputed miss-event overlay instead
// of simulated live — how every point after the first runs in a
// timing-parameter sweep.
func BenchmarkSimulatorReplay(b *testing.B) { benchReplay(b, "crafty") }

// BenchmarkSimulatorMCF is BenchmarkSimulatorReplay on memory-bound mcf
// (CPI 3-5), whose cycles mostly stall behind long D-misses: the dead cycles
// the simulator skips. The other simulator benchmarks all run crafty.
func BenchmarkSimulatorMCF(b *testing.B) { benchReplay(b, "mcf") }

// benchReplay measures overlay replay of 200k instructions of one suite
// program on the baseline machine.
func benchReplay(b *testing.B, bench string) {
	wc, _ := workload.SuiteConfig(bench)
	tr, err := trace.ReadAll(workload.MustNew(wc, 200_000))
	if err != nil {
		b.Fatal(err)
	}
	soa := trace.Pack(tr)
	cfg := uarch.Baseline()
	ov, err := overlay.Compute(soa, cfg.Pred, cfg.Mem)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := uarch.Run(soa.Reader(), cfg, uarch.Options{Overlay: ov})
		if err != nil {
			b.Fatal(err)
		}
		if res.Path != "soa+overlay" {
			b.Fatalf("not replaying: path %q (%s)", res.Path, res.Fallback)
		}
	}
	b.ReportMetric(float64(soa.Len())*float64(b.N)/b.Elapsed().Seconds()/1e6, "Minst/s")
}

// BenchmarkSampledSweep measures a small depth×ROB sweep run in sampled mode
// (systematic detailed/fast-forward alternation with functional warming) —
// the per-point cost that buys a confidence interval instead of an exact
// cycle count. Points/s is the sweep-throughput headline; compare against
// BenchmarkSimulator for the full-run cost the sampling avoids.
func BenchmarkSampledSweep(b *testing.B) {
	wc, _ := workload.SuiteConfig("crafty")
	soa, err := trace.PackReader(workload.MustNew(wc, 200_000))
	if err != nil {
		b.Fatal(err)
	}
	var cfgs []uarch.Config
	for _, depth := range []int{3, 7} {
		for _, rob := range []int{64, 128} {
			cfg := uarch.Baseline()
			cfg.Name = fmt.Sprintf("sampled-d%d-r%d", depth, rob)
			cfg.FrontendDepth = depth
			cfg.ROBSize = rob
			cfg.IQSize = rob / 2
			cfgs = append(cfgs, cfg)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, cfg := range cfgs {
			res, err := uarch.Run(soa.Reader(), cfg, uarch.Options{
				SampleStartSkip: 20_000,
				SampleDetailed:  2_000,
				SampleSkip:      18_000,
			})
			if err != nil {
				b.Fatal(err)
			}
			if res.Sample == nil || res.Sample.Units == 0 {
				b.Fatal("sampled run produced no sampling stats")
			}
		}
	}
	b.ReportMetric(float64(len(cfgs))*float64(b.N)/b.Elapsed().Seconds(), "points/s")
}

// BenchmarkOverlayCompute measures the one-time pre-pass that records
// speculation outcomes for a (trace, predictor, cache geometry) key —
// amortized across every timing configuration that replays it.
func BenchmarkOverlayCompute(b *testing.B) {
	wc, _ := workload.SuiteConfig("crafty")
	soa, err := trace.PackReader(workload.MustNew(wc, 200_000))
	if err != nil {
		b.Fatal(err)
	}
	cfg := uarch.Baseline()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := overlay.Compute(soa, cfg.Pred, cfg.Mem); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(soa.Len())*float64(b.N)/b.Elapsed().Seconds()/1e6, "Minst/s")
}

// BenchmarkModelSweep measures an entire analytic depth×ROB sweep — overlay
// pre-pass, shared ILP characteristics, and nine model evaluations — the
// end-to-end unit of work `sweep -mode model` performs per benchmark.
func BenchmarkModelSweep(b *testing.B) {
	wc, _ := workload.SuiteConfig("crafty")
	const insts = 200_000
	soa, err := trace.PackReader(workload.MustNew(wc, insts))
	if err != nil {
		b.Fatal(err)
	}
	base := uarch.Baseline()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ov, err := overlay.Compute(soa, base.Pred, base.Mem)
		if err != nil {
			b.Fatal(err)
		}
		set, err := core.NewModelSet(soa, ov, base, 256, 0, insts)
		if err != nil {
			b.Fatal(err)
		}
		for _, depth := range []int{3, 7, 11} {
			for _, rob := range []int{64, 128, 256} {
				cfg := base
				cfg.FrontendDepth, cfg.ROBSize, cfg.IQSize = depth, rob, rob/2
				m, prof, err := set.For(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := m.PredictCPI(prof); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.ReportMetric(9*float64(b.N)/b.Elapsed().Seconds(), "points/s")
}

// BenchmarkTracePack measures the one-time cost of packing a trace into the
// struct-of-arrays layout (amortized across every configuration that reuses
// the packed trace).
func BenchmarkTracePack(b *testing.B) {
	wc, _ := workload.SuiteConfig("crafty")
	tr, err := trace.ReadAll(workload.MustNew(wc, 200_000))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if trace.Pack(tr).Len() != tr.Len() {
			b.Fatal("bad pack")
		}
	}
	b.ReportMetric(float64(tr.Len())*float64(b.N)/b.Elapsed().Seconds()/1e6, "Minst/s")
}

func BenchmarkGenerator(b *testing.B) {
	wc, _ := workload.SuiteConfig("gcc")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := workload.MustNew(wc, 100_000)
		for {
			if _, err := g.Next(); err != nil {
				break
			}
		}
	}
	b.ReportMetric(100_000*float64(b.N)/b.Elapsed().Seconds()/1e6, "Minst/s")
}

func BenchmarkTraceEncodeDecode(b *testing.B) {
	wc, _ := workload.SuiteConfig("gzip")
	tr, err := trace.ReadAll(workload.MustNew(wc, 100_000))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf discardCounter
		if err := trace.Write(&buf, tr); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(tr.Len())*float64(b.N)/b.Elapsed().Seconds()/1e6, "Minst/s")
}

type discardCounter struct{ n int64 }

func (d *discardCounter) Write(p []byte) (int, error) {
	d.n += int64(len(p))
	return len(p), nil
}

func BenchmarkGShare(b *testing.B) {
	g := bpred.NewGShare(16384, 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Access(uint64(0x1000+(i%512)*4), i%3 != 0)
	}
}

func BenchmarkTAGE(b *testing.B) {
	p := bpred.NewTAGE(1024, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Access(uint64(0x1000+(i%512)*4), i%3 != 0)
	}
}

func Benchmark2BcGskew(b *testing.B) {
	p := bpred.NewGSkew(8192, 13)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Access(uint64(0x1000+(i%512)*4), i%3 != 0)
	}
}

// BenchmarkPredictability times one full per-branch statistics pass — the
// three-predictor drive, taxon classification, and summaries — over a
// packed crafty trace.
func BenchmarkPredictability(b *testing.B) {
	wc, _ := workload.SuiteConfig("crafty")
	soa, err := trace.PackReader(workload.MustNew(wc, 100_000))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prof, err := predictability.Collect(soa, predictability.Options{Warmup: 20_000})
		if err != nil {
			b.Fatal(err)
		}
		prof.Summaries()
	}
	b.ReportMetric(100_000*float64(b.N)/b.Elapsed().Seconds()/1e6, "Minst/s")
}

func BenchmarkCacheAccess(b *testing.B) {
	c := cache.New(cache.Config{Name: "b", Size: 64 << 10, LineSize: 64, Ways: 4, Repl: cache.LRU})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(uint64(i%4096) * 64)
	}
}

func BenchmarkCriticalPath(b *testing.B) {
	wc, _ := workload.SuiteConfig("crafty")
	tr, err := trace.ReadAll(workload.MustNew(wc, 4096))
	if err != nil {
		b.Fatal(err)
	}
	window := tr.Insts[:128]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ilp.CriticalPathTo(window, ilp.UnitLatency)
	}
}

func BenchmarkE11CPIStacks(b *testing.B)        { runExperiment(b, experiments.E11) }
func BenchmarkA1ModelAblation(b *testing.B)     { runExperiment(b, experiments.A1) }
func BenchmarkA2PredictorSweep(b *testing.B)    { runExperiment(b, experiments.A2) }
func BenchmarkE12Predication(b *testing.B)      { runExperiment(b, experiments.E12) }
func BenchmarkA3SampledSimulation(b *testing.B) { runExperiment(b, experiments.A3) }
func BenchmarkA4SampledCI(b *testing.B)         { runExperiment(b, experiments.A4) }
func BenchmarkB1PredictorShootout(b *testing.B) { runExperiment(b, experiments.B1) }
func BenchmarkB2PredictabilityTaxa(b *testing.B) {
	runExperiment(b, experiments.B2)
}
func BenchmarkC1ValuePrediction(b *testing.B) { runExperiment(b, experiments.C1) }
func BenchmarkC2FetchThrottle(b *testing.B)   { runExperiment(b, experiments.C2) }

// BenchmarkVPred times the raw value-prediction unit on a cyclic PC stream:
// the per-access cost every eligible instruction pays in a value-speculating
// overlay pre-pass or live run.
func BenchmarkVPred(b *testing.B) {
	cfg, _ := vpred.Preset("stride")
	cfg.Stream = vpred.DefaultStream()
	r, err := vpred.NewRunner(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Access(uint64(0x1000 + (i%512)*4))
	}
}

// BenchmarkFetchRate measures the cycle-level simulator with value
// prediction and fetch throttling both enabled — the full value-speculation
// slow path against plain BenchmarkSimulator.
func BenchmarkFetchRate(b *testing.B) {
	wc, _ := workload.SuiteConfig("crafty")
	soa, err := trace.PackReader(workload.MustNew(wc, 200_000))
	if err != nil {
		b.Fatal(err)
	}
	cfg := uarch.Baseline()
	vp, _ := vpred.Preset("stride")
	vp.Stream = wc.ValueStream()
	cfg.VPred = &vp
	cfg.FetchRate = 0.5
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := uarch.Run(soa.Reader(), cfg, uarch.Options{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(soa.Len())*float64(b.N)/b.Elapsed().Seconds()/1e6, "Minst/s")
}
