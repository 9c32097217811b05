// Package experiments regenerates every table and figure of the paper's
// evaluation (the experiment index in DESIGN.md). Each experiment is a
// function that simulates what it needs and renders a report.Table; the
// cmd/experiments tool and the repository's bench_test.go both call in here,
// so the printed artifacts and the benchmark harness cannot drift apart.
package experiments

import (
	"fmt"
	"io"

	"intervalsim/internal/core"
	"intervalsim/internal/report"
	"intervalsim/internal/stats"
	"intervalsim/internal/trace"
	"intervalsim/internal/uarch"
	"intervalsim/internal/workload"
)

// Params sizes the simulations. The defaults aim at stable statistics in
// tens of seconds for the full suite; benchmarks in bench_test.go use
// smaller values.
type Params struct {
	Insts  int    // dynamic instructions per run
	Warmup uint64 // instructions excluded from statistics

	// Deterministic normalizes every wall-clock-derived cell (today only
	// A3's speedup column) to a fixed placeholder, so the full report is
	// byte-reproducible across runs and machines and can be diffed in CI.
	// Simulation outputs are unaffected: they are deterministic already.
	Deterministic bool
}

// DefaultParams returns the experiment sizing used for EXPERIMENTS.md.
func DefaultParams() Params {
	return Params{Insts: 2_000_000, Warmup: 500_000}
}

// QuickParams returns a reduced sizing for smoke tests and benchmarks.
func QuickParams() Params {
	return Params{Insts: 300_000, Warmup: 50_000}
}

// run simulates one workload on cfg with full instrumentation. The trace
// comes packed from the shared memo (struct-of-arrays layout, index-based
// hot path, precomputed dependence metadata), and speculation outcomes are
// replayed from the shared miss-event overlay — computed once per (trace,
// predictor, cache geometry) and reused by every timing point that asks,
// with results bit-identical to live simulation.
func run(wc workload.Config, cfg uarch.Config, p Params) (*trace.Trace, *uarch.Result, error) {
	st, err := suiteTraceFor(wc, p.Insts)
	if err != nil {
		return nil, nil, err
	}
	ov, err := overlayFor(st, cfg)
	if err != nil {
		return nil, nil, err
	}
	res, err := uarch.Run(st.SoA.Reader(), cfg, uarch.Options{
		RecordEvents:      true,
		RecordMispredicts: true,
		RecordLoadLevels:  true,
		WarmupInsts:       p.Warmup,
		Overlay:           ov,
	})
	if err != nil {
		return nil, nil, err
	}
	return st.Trace, res, nil
}

func perKI(n, insts uint64) float64 {
	if insts == 0 {
		return 0
	}
	return float64(n) / float64(insts) * 1000
}

// T1 prints the baseline machine configuration.
func T1(w io.Writer) error {
	cfg := uarch.Baseline()
	t := report.New("T1: baseline processor configuration", "parameter", "value")
	t.AddRow("dispatch/issue/commit width", fmt.Sprintf("%d / %d / %d", cfg.DispatchWidth, cfg.IssueWidth, cfg.CommitWidth))
	t.AddRow("fetch width", fmt.Sprintf("%d", cfg.FetchWidth))
	t.AddRow("frontend pipeline depth", fmt.Sprintf("%d", cfg.FrontendDepth))
	t.AddRow("ROB / issue queue", fmt.Sprintf("%d / %d", cfg.ROBSize, cfg.IQSize))
	t.AddRow("int ALU", fuLine(cfg.FU.IntALU))
	t.AddRow("int mul", fuLine(cfg.FU.IntMul))
	t.AddRow("int div", fuLine(cfg.FU.IntDiv))
	t.AddRow("fp add", fuLine(cfg.FU.FPAdd))
	t.AddRow("fp mul", fuLine(cfg.FU.FPMul))
	t.AddRow("fp div", fuLine(cfg.FU.FPDiv))
	t.AddRow("mem ports", fmt.Sprintf("%d", cfg.FU.MemPort.Count))
	t.AddRow("branch predictor", fmt.Sprintf("%s %d entries, %d history, %d BTB",
		cfg.Pred.Kind, cfg.Pred.Entries, cfg.Pred.HistBits, cfg.Pred.BTBEntries))
	t.AddRow("L1I", cfg.Mem.L1I.String())
	t.AddRow("L1D", cfg.Mem.L1D.String())
	t.AddRow("L2", cfg.Mem.L2.String())
	t.AddRow("latencies L1/L2/mem", fmt.Sprintf("%d / %d / %d cycles",
		cfg.Mem.Lat.L1, cfg.Mem.Lat.L2, cfg.Mem.Lat.Mem))
	return t.Fprint(w)
}

func fuLine(p uarch.FUPool) string {
	pipe := "pipelined"
	if !p.Pipelined {
		pipe = "unpipelined"
	}
	return fmt.Sprintf("%d × %d cy, %s", p.Count, p.Latency, pipe)
}

// T2 characterizes the benchmark suite on the baseline machine.
func T2(w io.Writer, p Params) error {
	cfg := uarch.Baseline()
	t := report.New("T2: benchmark characterization (baseline machine)",
		"benchmark", "IPC", "br-MPKI", "I$-MPKI", "shortD/KI", "longD/KI", "ILP beta", "K(ROB)")
	for _, wc := range workload.Suite() {
		_, res, err := run(wc, cfg, p)
		if err != nil {
			return err
		}
		char, err := unitCharacteristic(wc, p)
		if err != nil {
			return err
		}
		t.AddRow(wc.Name,
			fmt.Sprintf("%.2f", res.IPC()),
			fmt.Sprintf("%.2f", perKI(res.Mispredicts, res.Insts)),
			fmt.Sprintf("%.2f", perKI(res.ICacheMisses, res.Insts)),
			fmt.Sprintf("%.2f", perKI(res.ShortDMisses, res.Insts)),
			fmt.Sprintf("%.2f", perKI(res.LongDMisses, res.Insts)),
			fmt.Sprintf("%.2f", char.Beta),
			fmt.Sprintf("%.1f", char.EvalInterp(cfg.ROBSize)),
		)
	}
	return t.Fprint(w)
}

// E1 prints the dispatch-rate timeline around one branch misprediction: the
// textbook interval picture — steady dispatch, a stall while the branch
// resolves, the refill, then steady dispatch again.
func E1(w io.Writer, p Params) error {
	cfg := uarch.Baseline()
	wc, _ := workload.SuiteConfig("gzip")
	st, err := suiteTraceFor(wc, p.Insts)
	if err != nil {
		return err
	}
	ov, err := overlayFor(st, cfg)
	if err != nil {
		return err
	}
	res, err := uarch.Run(st.SoA.Reader(), cfg, uarch.Options{
		RecordMispredicts: true,
		TimelineCycles:    200_000,
		Overlay:           ov,
	})
	if err != nil {
		return err
	}
	// Pick a misprediction with a well-filled window, far enough in to be
	// past cold start, whose whole penalty lies inside the timeline.
	var pick *uarch.MispredictRecord
	for i := range res.Records {
		r := &res.Records[i]
		if r.DispatchCycle > 5000 && r.ResumeCycle > 0 &&
			int(r.ResumeCycle)+20 < len(res.Timeline) && r.SinceLastMiss > 40 {
			pick = r
			break
		}
	}
	if pick == nil {
		return fmt.Errorf("experiments: no suitable misprediction in timeline window")
	}
	t := report.New(fmt.Sprintf(
		"E1: dispatch timeline around a misprediction (branch dispatched at cycle %d, resolved %d, resumed %d)",
		pick.DispatchCycle, pick.ResolveCycle, pick.ResumeCycle),
		"cycle(rel)", "dispatched", "phase")
	start := int(pick.DispatchCycle) - 12
	end := int(pick.ResumeCycle) + 8
	for c := start; c < end && c < len(res.Timeline); c++ {
		phase := "interval"
		switch {
		case c == int(pick.DispatchCycle):
			phase = "<< mispredicted branch dispatches"
		case c > int(pick.DispatchCycle) && c < int(pick.ResolveCycle):
			phase = "resolving (window drain)"
		case c >= int(pick.ResolveCycle) && c < int(pick.ResumeCycle):
			phase = "pipeline refill"
		case c == int(pick.ResumeCycle):
			phase = "<< dispatch resumes"
		}
		t.AddRow(fmt.Sprintf("%+d", c-int(pick.DispatchCycle)),
			fmt.Sprintf("%d", res.Timeline[c]), phase)
	}
	return t.Fprint(w)
}

// E2 prints the interval-length distribution per benchmark: the fraction of
// intervals in each power-of-two length bucket, demonstrating the burstiness
// of miss events (mass at short intervals).
func E2(w io.Writer, p Params) error {
	cfg := uarch.Baseline()
	const buckets = 14
	t := report.New("E2: inter-miss interval length distribution (fraction of intervals; bucket = [2^i, 2^(i+1)) insts)",
		append([]string{"benchmark"}, bucketHeaders(buckets)...)...)
	for _, wc := range workload.Suite() {
		_, res, err := run(wc, cfg, p)
		if err != nil {
			return err
		}
		ivs, err := core.Segment(res.Events, uint64(p.Insts))
		if err != nil {
			return err
		}
		sum := core.Summarize(ivs, buckets)
		row := []string{wc.Name}
		for i := 0; i < buckets; i++ {
			row = append(row, fmt.Sprintf("%.3f", sum.LengthLog.Fraction(i)))
		}
		t.AddRow(row...)
	}
	return t.Fprint(w)
}

func bucketHeaders(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("2^%d", i)
	}
	return out
}

// E3 reports the average branch misprediction penalty per benchmark against
// the frontend pipeline length: the paper's headline table (penalty ≫ L).
func E3(w io.Writer, p Params) error {
	cfg := uarch.Baseline()
	t := report.New(fmt.Sprintf("E3: average misprediction penalty vs frontend pipeline length (L = %d)", cfg.FrontendDepth),
		"benchmark", "mispredicts", "avg penalty", "avg resolution", "refill (L)", "penalty/L")
	for _, wc := range workload.Suite() {
		_, res, err := run(wc, cfg, p)
		if err != nil {
			return err
		}
		var resol stats.Running
		for _, r := range res.Records {
			if r.Penalty() > 0 {
				resol.Add(r.ResolutionTime())
			}
		}
		pen := res.AvgMispredictPenalty()
		t.AddRow(wc.Name,
			fmt.Sprintf("%d", res.Mispredicts),
			fmt.Sprintf("%.1f", pen),
			fmt.Sprintf("%.1f", resol.Mean()),
			fmt.Sprintf("%d", cfg.FrontendDepth),
			fmt.Sprintf("%.1f", pen/float64(cfg.FrontendDepth)),
		)
	}
	return t.Fprint(w)
}

// E4 reports the measured penalty as a function of the number of
// instructions since the last miss event (log2 buckets) for the
// compute-bound benchmarks, next to the analytic model's prediction:
// rising, then saturating once the window fills - contributor (ii). A
// second table buckets by the directly recorded window occupancy, the
// mechanism behind the distance effect. Memory-bound benchmarks are
// excluded here because a long-miss load inside the window inflates the
// measured penalty independently of the refill effect (see E5's longD
// column and the discussion in EXPERIMENTS.md).
func E4(w io.Writer, p Params) error {
	cfg := uarch.Baseline()
	const buckets = 12
	names := []string{"gzip", "crafty", "twolf"}

	dist := report.New("E4a: penalty vs instructions since last miss event (log2 buckets)",
		append([]string{"bucket"}, e4Headers(names)...)...)
	occ := report.New("E4b: penalty vs window occupancy at branch dispatch (log2 buckets)",
		append([]string{"bucket"}, e4Headers(names)...)...)

	type cell struct {
		measured stats.Running
		model    stats.Running
	}
	distCells := make([][]cell, len(names))
	occCells := make([][]cell, len(names))
	for bi, name := range names {
		distCells[bi] = make([]cell, buckets)
		occCells[bi] = make([]cell, buckets)
		wc, ok := workload.SuiteConfig(name)
		if !ok {
			return fmt.Errorf("experiments: unknown benchmark %s", name)
		}
		tr, res, err := run(wc, cfg, p)
		if err != nil {
			return err
		}
		m, _, err := modelFor(wc, cfg, p)
		if err != nil {
			return err
		}
		dec, err := core.NewDecomposer(tr, res)
		if err != nil {
			return err
		}
		for _, r := range res.Records {
			if r.Penalty() <= 0 {
				continue
			}
			// Condition on windows whose resolution path is free of long
			// D-cache misses: a memory-latency load feeding the branch
			// inflates the penalty regardless of the refill effect under
			// study (it belongs to the long-miss event class, see E5).
			if b, ok := dec.Decompose(r); !ok || b.LongDMiss > 0.5 {
				continue
			}
			// Also require a clean refill: if dispatch resumed later than
			// the pipeline depth after resolution, another miss event (an
			// I-cache miss on the redirect path) overlapped the refill.
			if r.ResumeCycle-r.ResolveCycle > uint64(cfg.FrontendDepth+2) {
				continue
			}
			db := log2Bucket(r.SinceLastMiss, buckets)
			distCells[bi][db].measured.Add(r.Penalty())
			distCells[bi][db].model.Add(m.MispredictPenalty(r.SinceLastMiss))
			ob := log2Bucket(uint64(r.Occupancy), buckets)
			occCells[bi][ob].measured.Add(r.Penalty())
			occCells[bi][ob].model.Add(m.MispredictPenalty(uint64(r.Occupancy)))
		}
	}
	for b := 0; b < buckets; b++ {
		dRow := []string{fmt.Sprintf("[%d,%d)", 1<<b, 1<<(b+1))}
		oRow := []string{fmt.Sprintf("[%d,%d)", 1<<b, 1<<(b+1))}
		dAny, oAny := false, false
		for bi := range names {
			d := &distCells[bi][b]
			if d.measured.Count() > 0 {
				dAny = true
				dRow = append(dRow, fmt.Sprintf("%.1f", d.measured.Mean()), fmt.Sprintf("%.1f", d.model.Mean()))
			} else {
				dRow = append(dRow, "-", "-")
			}
			o := &occCells[bi][b]
			if o.measured.Count() > 0 {
				oAny = true
				oRow = append(oRow, fmt.Sprintf("%.1f", o.measured.Mean()), fmt.Sprintf("%.1f", o.model.Mean()))
			} else {
				oRow = append(oRow, "-", "-")
			}
		}
		if dAny {
			dist.AddRow(dRow...)
		}
		if oAny {
			occ.AddRow(oRow...)
		}
	}
	if err := dist.Fprint(w); err != nil {
		return err
	}
	fmt.Fprintln(w)
	return occ.Fprint(w)
}

func e4Headers(names []string) []string {
	var out []string
	for _, n := range names {
		out = append(out, n+" meas", n+" model")
	}
	return out
}

func log2Bucket(v uint64, buckets int) int {
	b := 0
	for v > 1 && b < buckets-1 {
		v >>= 1
		b++
	}
	return b
}

// E5 prints the five-way penalty decomposition per benchmark: the paper's
// central quantification of the contributors.
func E5(w io.Writer, p Params) error {
	cfg := uarch.Baseline()
	t := report.New("E5: misprediction penalty decomposition (cycles, mean per misprediction)",
		"benchmark", "frontend(i)", "drain ILP(ii+iii)", "FU lat(iv)", "shortD(v)", "longD ovl", "residual", "total")
	for _, wc := range workload.Suite() {
		tr, res, err := run(wc, cfg, p)
		if err != nil {
			return err
		}
		d, err := core.NewDecomposer(tr, res)
		if err != nil {
			return err
		}
		m := core.Mean(d.DecomposeAll())
		t.AddRow(wc.Name,
			fmt.Sprintf("%.1f", m.Frontend),
			fmt.Sprintf("%.1f", m.BaseILP),
			fmt.Sprintf("%.1f", m.FULatency),
			fmt.Sprintf("%.1f", m.ShortDMiss),
			fmt.Sprintf("%.1f", m.LongDMiss),
			fmt.Sprintf("%.1f", m.Residual),
			fmt.Sprintf("%.1f", m.Total),
		)
	}
	return t.Fprint(w)
}
