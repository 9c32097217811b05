package experiments

import (
	"fmt"
	"io"
	"math"

	"intervalsim/internal/core"
	"intervalsim/internal/ilp"
	"intervalsim/internal/report"
	"intervalsim/internal/trace"
	"intervalsim/internal/uarch"
	"intervalsim/internal/workload"
)

// E11 is an extension beyond the paper's figures: cycle stacks. Interval
// analysis implies that total cycles decompose into a base component plus
// per-event penalties; this experiment prints that decomposition from both
// sides — the model's predicted stack, and the detailed simulator's
// dispatch-stall accounting — as fractions of total cycles. (Cycle stacks
// built on interval analysis are exactly where this line of work went next.)
func E11(w io.Writer, p Params) error {
	cfg := uarch.Baseline()
	t := report.New("E11 (extension): cycle stacks — model prediction vs simulator stall accounting (fraction of cycles)",
		"benchmark", "mdl base", "mdl bpred", "mdl I$", "mdl longD", "sim dispatch", "sim bpred", "sim I$", "sim ROB/IQ", "sim other")
	for _, wc := range workload.Suite() {
		_, res, err := run(wc, cfg, p)
		if err != nil {
			return err
		}
		m, prof, err := modelFor(wc, cfg, p)
		if err != nil {
			return err
		}
		pred, err := m.PredictCPI(prof)
		if err != nil {
			return err
		}
		mt := pred.Total()

		st := res.Stalls
		stallBpred := st.BranchResolve + st.Refill
		stallIC := st.ICacheMiss
		stallBack := st.ROBFull + st.IQFull
		stallOther := st.Other
		busy := res.Cycles - stallBpred - stallIC - stallBack - stallOther
		sc := float64(res.Cycles)

		t.AddRow(wc.Name,
			fmt.Sprintf("%.2f", pred.Base/mt),
			fmt.Sprintf("%.2f", pred.Bpred/mt),
			fmt.Sprintf("%.2f", pred.ICache/mt),
			fmt.Sprintf("%.2f", pred.LongData/mt),
			fmt.Sprintf("%.2f", float64(busy)/sc),
			fmt.Sprintf("%.2f", float64(stallBpred)/sc),
			fmt.Sprintf("%.2f", float64(stallIC)/sc),
			fmt.Sprintf("%.2f", float64(stallBack)/sc),
			fmt.Sprintf("%.2f", float64(stallOther)/sc),
		)
	}
	if err := t.Fprint(w); err != nil {
		return err
	}
	fmt.Fprintln(w, "\nNote: the two sides attribute overlap differently (the simulator charges a")
	fmt.Fprintln(w, "long miss to ROB-full dispatch stalls; the model charges it to the event),")
	fmt.Fprintln(w, "so columns correspond loosely: base~dispatch, bpred~bpred, longD~ROB/IQ.")
	return nil
}

// A1 is the model ablation: how much does each refinement of the analytic
// model contribute to E9's accuracy? Each row disables one refinement and
// reports the signed CPI error per benchmark plus the mean absolute error.
func A1(w io.Writer, p Params) error {
	cfg := uarch.Baseline()
	names := []string{"gzip", "mcf", "parser", "twolf"}
	variants := []struct {
		label string
		opts  core.ModelOptions
		// raw drains the window along the raw whole-window critical path
		// instead of the scheduled branch resolution: the difference is the
		// execution-overlap credit old window contents earn while the branch
		// travels the frontend.
		raw bool
	}{
		{"full model", core.ModelOptions{}, false},
		{"- serial-miss detection", core.ModelOptions{NoSerialMisses: true}, false},
		{"- long-miss overlap credit", core.ModelOptions{NoOverlapCredit: true}, false},
		{"- fetch-break dispatch cap", core.ModelOptions{NoFetchCap: true}, false},
		{"- inherent-ILP dispatch cap", core.ModelOptions{NoILPCap: true}, false},
		{"- scheduled resolution (raw critical path)", core.ModelOptions{}, true},
	}

	headers := append([]string{"model variant"}, names...)
	headers = append(headers, "mean |err|")
	t := report.New("A1 (ablation): CPI error of the analytic model vs cycle-level simulation (%)", headers...)

	type benchData struct {
		model *core.Model
		prof  *core.Profile
		res   *uarch.Result
		raw   ilp.Characteristic // the whole-window critical path at the model's resolution windows
	}
	data := make([]benchData, 0, len(names))
	for _, name := range names {
		wc, ok := workload.SuiteConfig(name)
		if !ok {
			return fmt.Errorf("experiments: unknown benchmark %s", name)
		}
		_, res, err := run(wc, cfg, p)
		if err != nil {
			return err
		}
		m, prof, err := modelFor(wc, cfg, p)
		if err != nil {
			return err
		}
		raw, err := ilpCharacteristic(wc, m.KRes.Windows, core.MachineLatency(cfg, prof.ShortMissRatio()), p)
		if err != nil {
			return err
		}
		data = append(data, benchData{model: m, prof: prof, res: res, raw: raw})
	}

	for _, v := range variants {
		row := []string{v.label}
		var absSum float64
		for _, d := range data {
			m := *d.model
			m.Opts = v.opts
			if v.raw {
				m.KRes = d.raw
			}
			pred, err := m.PredictCPI(d.prof)
			if err != nil {
				return err
			}
			relErr, err := core.ValidationError(pred, d.res)
			if err != nil {
				return err
			}
			row = append(row, fmt.Sprintf("%+.1f", relErr*100))
			absSum += math.Abs(relErr) * 100
		}
		row = append(row, fmt.Sprintf("%.1f", absSum/float64(len(data))))
		t.AddRow(row...)
	}
	return t.Fprint(w)
}

// A2 sweeps the branch predictor: interval analysis says a better predictor
// changes the *number* of misprediction events, while the per-event penalty
// is set by the pipeline and the program (occupancy, ILP, latencies) — so
// the average penalty should move far less than the MPKI.
func A2(w io.Writer, p Params) error {
	preds := []uarch.PredictorSpec{
		{Kind: "not-taken"},
		{Kind: "bimodal", Entries: 16384, BTBEntries: 4096},
		{Kind: "gshare", Entries: 16384, HistBits: 12, BTBEntries: 4096},
		{Kind: "local", Entries: 16384, HistBits: 10, BTBEntries: 4096},
		{Kind: "tournament", Entries: 16384, HistBits: 12, BTBEntries: 4096},
		{Kind: "perceptron", Entries: 1024, HistBits: 24, BTBEntries: 4096},
		{Kind: "perfect"},
	}
	names := []string{"crafty", "twolf"}
	headers := []string{"predictor"}
	for _, n := range names {
		headers = append(headers, n+" MPKI", n+" penalty", n+" IPC")
	}
	t := report.New("A2 (ablation): branch predictor sweep — event count vs per-event penalty", headers...)
	for _, spec := range preds {
		row := []string{spec.Kind}
		for _, name := range names {
			wc, ok := workload.SuiteConfig(name)
			if !ok {
				return fmt.Errorf("experiments: unknown benchmark %s", name)
			}
			cfg := uarch.Baseline()
			cfg.Pred = spec
			_, res, err := run(wc, cfg, p)
			if err != nil {
				return err
			}
			pen := "-"
			if res.Mispredicts > 0 {
				pen = fmt.Sprintf("%.1f", res.AvgMispredictPenalty())
			}
			row = append(row,
				fmt.Sprintf("%.1f", perKI(res.Mispredicts, res.Insts)),
				pen,
				fmt.Sprintf("%.2f", res.IPC()),
			)
		}
		t.AddRow(row...)
	}
	return t.Fprint(w)
}

// E12 is the paper's motivating application: use the penalty attribution to
// pick the branches worth if-converting. It predicates (idealized: converts
// to ALU ops) the costliest static branches covering ~25% of the measured
// penalty, re-simulates, and compares against predicating an equal number of
// arbitrary branches — targeted conversion should recover far more IPC.
func E12(w io.Writer, p Params) error {
	cfg := uarch.Baseline()
	t := report.New("E12 (extension): targeted if-conversion of the costliest branches",
		"benchmark", "branches picked", "penalty share", "base IPC", "targeted IPC", "gain%", "arbitrary IPC", "gain%")
	for _, name := range []string{"crafty", "twolf", "vpr"} {
		wc, ok := workload.SuiteConfig(name)
		if !ok {
			return fmt.Errorf("experiments: unknown benchmark %s", name)
		}
		tr, res, err := run(wc, cfg, p)
		if err != nil {
			return err
		}
		costs := core.CostliestBranches(tr, res, 0)
		var total float64
		for _, c := range costs {
			total += c.TotalPenalty
		}
		// Pick the head of the distribution up to ~25% of the total penalty.
		target := make(map[uint64]bool)
		var covered float64
		for _, c := range costs {
			if covered >= total*0.25 {
				break
			}
			target[c.PC] = true
			covered += c.TotalPenalty
		}
		if len(target) == 0 || len(target) == len(costs) {
			return fmt.Errorf("experiments: degenerate pick for %s (%d of %d)", name, len(target), len(costs))
		}
		// The control group: the same number of branches from the cheap tail.
		arbitrary := make(map[uint64]bool)
		for i := len(costs) - 1; i >= 0 && len(arbitrary) < len(target); i-- {
			arbitrary[costs[i].PC] = true
		}

		simIPC := func(pcs map[uint64]bool) (float64, error) {
			ptr := core.Predicate(tr, pcs)
			r2, err := uarch.Run(trace.Pack(ptr).Reader(), cfg, uarch.Options{WarmupInsts: p.Warmup})
			if err != nil {
				return 0, err
			}
			return r2.IPC(), nil
		}
		targetedIPC, err := simIPC(target)
		if err != nil {
			return err
		}
		arbitraryIPC, err := simIPC(arbitrary)
		if err != nil {
			return err
		}
		base := res.IPC()
		t.AddRow(name,
			fmt.Sprintf("%d/%d", len(target), len(costs)),
			fmt.Sprintf("%.0f%%", covered/total*100),
			fmt.Sprintf("%.2f", base),
			fmt.Sprintf("%.2f", targetedIPC),
			fmt.Sprintf("%+.1f", (targetedIPC/base-1)*100),
			fmt.Sprintf("%.2f", arbitraryIPC),
			fmt.Sprintf("%+.1f", (arbitraryIPC/base-1)*100),
		)
	}
	return t.Fprint(w)
}

// A3 validates sampled simulation with functional warming (an era-standard
// methodology the substrate supports): alternating 50K detailed / 150K
// fast-forwarded instructions must estimate the full-run CPI closely while
// simulating a quarter of the instructions in detail.
func A3(w io.Writer, p Params) error {
	cfg := uarch.Baseline()
	t := report.New("A3 (extension): sampled simulation (50K detailed / 150K functional warming)",
		"benchmark", "full CPI", "sampled CPI", "err%", "detail fraction", "speedup")
	for _, wc := range workload.Suite() {
		st, err := suiteTraceFor(wc, p.Insts)
		if err != nil {
			return err
		}

		// Matched measurement regions: the full run discards its warmup
		// statistics; the sampled run fast-forwards the same region
		// functionally and then samples the remainder. Both simulate the
		// shared packed trace, so the speedup times simulation alone.
		t0 := timeNow()
		full, err := uarch.Run(st.SoA.Reader(), cfg, uarch.Options{WarmupInsts: p.Warmup})
		if err != nil {
			return err
		}
		fullDur := timeNow() - t0

		t1 := timeNow()
		sampled, err := uarch.Run(st.SoA.Reader(), cfg, uarch.Options{
			SampleStartSkip: p.Warmup,
			SampleDetailed:  50_000,
			SampleSkip:      150_000,
		})
		if err != nil {
			return err
		}
		sampDur := timeNow() - t1

		relErr := (sampled.CPI() - full.CPI()) / full.CPI()
		// The speedup cell is the one number in the whole report derived
		// from wall-clock time; Deterministic replaces it with a placeholder
		// so the full report is byte-reproducible (see Params.Deterministic).
		speedupCell := fmt.Sprintf("%.1fx", float64(fullDur)/float64(sampDur))
		if p.Deterministic {
			speedupCell = "-"
		}
		t.AddRow(wc.Name,
			fmt.Sprintf("%.3f", full.CPI()),
			fmt.Sprintf("%.3f", sampled.CPI()),
			fmt.Sprintf("%+.1f", relErr*100),
			fmt.Sprintf("%.2f", float64(sampled.Insts)/float64(full.Insts)),
			speedupCell,
		)
	}
	return t.Fprint(w)
}

// A4 pins the statistical machinery sampled mode reports: for every
// benchmark, the 95% confidence interval a sampled run attaches to its CPI
// (a ratio estimator over the systematic measurement units) must cover the
// CPI of a full detailed run over the same steady-state region. Phase
// lengths scale with the sizing (1% detailed, 4% functional warming per
// period), so quick and full runs both observe ~15 units per point. Unlike
// A3, no cell here derives from wall-clock time: the whole table is
// byte-reproducible without -deterministic.
func A4(w io.Writer, p Params) error {
	cfg := uarch.Baseline()
	detailed := uint64(p.Insts) / 100
	skip := 4 * detailed
	t := report.New(fmt.Sprintf("A4 (extension): sampled-run CPI confidence intervals (95%%; %d detailed / %d warming per period)", detailed, skip),
		"benchmark", "full CPI", "sampled CPI", "95% CI", "rel err", "units", "covered")
	for _, wc := range workload.Suite() {
		st, err := suiteTraceFor(wc, p.Insts)
		if err != nil {
			return err
		}
		// The full-run reference excludes the cold-start region the sampled
		// run fast-forwards, so both estimate the same steady state.
		full, err := uarch.Run(st.SoA.Reader(), cfg, uarch.Options{WarmupInsts: p.Warmup})
		if err != nil {
			return err
		}
		sampled, err := uarch.Run(st.SoA.Reader(), cfg, uarch.Options{
			SampleStartSkip: p.Warmup,
			SampleDetailed:  detailed,
			SampleSkip:      skip,
		})
		if err != nil {
			return err
		}
		s := sampled.Sample
		if s == nil {
			return fmt.Errorf("experiments: %s sampled run carried no sampling statistics", wc.Name)
		}
		covered := "yes"
		if !s.CPI.Covers(full.CPI()) {
			covered = "NO"
		}
		t.AddRow(wc.Name,
			fmt.Sprintf("%.3f", full.CPI()),
			fmt.Sprintf("%.3f", s.CPI.Mean),
			fmt.Sprintf("[%.3f, %.3f]", s.CPI.Lower, s.CPI.Upper),
			fmt.Sprintf("%.1f%%", 100*s.CPI.RelErr),
			fmt.Sprintf("%d", s.Units),
			covered,
		)
	}
	return t.Fprint(w)
}
