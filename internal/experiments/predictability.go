package experiments

import (
	"fmt"
	"io"

	"intervalsim/internal/bpred"
	"intervalsim/internal/core"
	"intervalsim/internal/predictability"
	"intervalsim/internal/report"
	"intervalsim/internal/uarch"
	"intervalsim/internal/workload"
)

// B1 is the predictor shootout: every predictor kind sized to the same
// direction-prediction storage budget (the baseline tournament's), compared
// on mispredicts per kilo-instruction and end IPC. Interval analysis says
// the predictor moves the *event count* while the per-event penalty stays a
// pipeline property; this table shows how far the event count moves when
// modern history-based predictors (TAGE, 2Bc-gskew) replace the classic
// ones at equal cost. A second table sweeps the storage budget itself:
// accuracy versus budget for each kind, on the same trace.
func B1(w io.Writer, p Params) error {
	budget := bpred.Config{Kind: "tournament", Entries: 16384, HistBits: 12}.StorageBits()
	kinds := []string{"bimodal", "gshare", "local", "tournament", "perceptron", "2bc-gskew", "tage"}
	names := []string{"crafty", "twolf"}

	headers := []string{"predictor", "entries", "storage"}
	for _, n := range names {
		headers = append(headers, n+" MPKI", n+" penalty", n+" IPC")
	}
	t := report.New(fmt.Sprintf("B1: predictor shootout at an equal %d KB direction-storage budget", budget/8/1024), headers...)
	for _, kind := range kinds {
		spec, ok := bpred.ConfigForBudget(kind, budget)
		if !ok {
			return fmt.Errorf("experiments: no %s sizing fits %d bits", kind, budget)
		}
		row := []string{kind, fmt.Sprintf("%d", spec.Entries), fmt.Sprintf("%.1f KB", float64(spec.StorageBits())/8/1024)}
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
				fmt.Sprintf("%.2f", perKI(res.Mispredicts, res.Insts)),
				pen,
				fmt.Sprintf("%.2f", res.IPC()),
			)
		}
		t.AddRow(row...)
	}
	if err := t.Fprint(w); err != nil {
		return err
	}
	fmt.Fprintln(w)

	// Accuracy vs storage budget, direction prediction only (no pipeline in
	// the loop): how each kind spends additional area on one trace.
	wc, _ := workload.SuiteConfig("crafty")
	st, err := suiteTraceFor(wc, p.Insts)
	if err != nil {
		return err
	}
	budgets := []int64{2 << 10 * 8, 8 << 10 * 8, 32 << 10 * 8, 128 << 10 * 8}
	curveKinds := []string{"bimodal", "gshare", "tournament", "2bc-gskew", "tage"}
	headers2 := []string{"budget"}
	for _, k := range curveKinds {
		headers2 = append(headers2, k+" MPKI")
	}
	t2 := report.New("B1b: direction-mispredict MPKI vs storage budget (crafty)", headers2...)
	curves := make(map[string][]predictability.BudgetPoint, len(curveKinds))
	for _, kind := range curveKinds {
		pts, err := predictability.BudgetCurve(st.SoA, kind, budgets, int(p.Warmup))
		if err != nil {
			return err
		}
		curves[kind] = pts
	}
	for i, b := range budgets {
		row := []string{fmt.Sprintf("%d KB", b/8/1024)}
		for _, kind := range curveKinds {
			row = append(row, fmt.Sprintf("%.2f", curves[kind][i].MPKI))
		}
		t2.AddRow(row...)
	}
	return t2.Fprint(w)
}

// b2Workload is the history-heavy crafty variant B2 characterizes: a larger
// population of pattern (history-correlated) branches plus a slice of
// genuinely random coin-flip branches, so every taxon is populated and the
// hard-to-predict residue dominates the mispredict budget.
func b2Workload() workload.Config {
	wc, _ := workload.SuiteConfig("crafty")
	wc.Name = "crafty-hist"
	wc.PatternBranchFrac = 0.30
	wc.RandomBranchFrac = 0.06
	wc.RandomBranchBias = 0.5
	return wc
}

// B2 characterizes the branch population behind the penalty: every static
// branch is classified into a predictability taxon (driving the baseline
// subject predictor, a deep-history TAGE reference, and a history-less
// bimodal side by side), and the subject's direction mispredicts, frontend
// redirects, and measured interval penalty are attributed per taxon. A
// second table lists the top hard-to-predict (H2P) branches individually —
// the paper-era observation that a handful of static branches carry most of
// the misprediction cost.
func B2(w io.Writer, p Params) error {
	wc := b2Workload()
	st, err := suiteTraceFor(wc, p.Insts)
	if err != nil {
		return err
	}
	prof, err := predictability.Collect(st.SoA, predictability.Options{Warmup: int(p.Warmup)})
	if err != nil {
		return err
	}

	// Price the mispredicts with the cycle-level simulator on the baseline
	// machine and fold the measured penalties into the profile.
	cfg := uarch.Baseline()
	tr, res, err := run(wc, cfg, p)
	if err != nil {
		return err
	}
	byPC := make(map[uint64]float64)
	for _, c := range core.CostliestBranches(tr, res, 0) {
		byPC[c.PC] = c.TotalPenalty
	}
	prof.AttributePenalty(byPC)

	totalMisp := prof.TotalDirMispredicts()
	var totalPen float64
	sums := prof.Summaries()
	for _, s := range sums {
		totalPen += s.Penalty
	}
	t := report.New(fmt.Sprintf("B2: branch-predictability taxa (%s, subject %s)", wc.Name, prof.Opts.Subject.Kind),
		"taxon", "static", "execs", "dir misp", "misp MPKI", "misp share", "redirects", "penalty", "pen share")
	for _, s := range sums {
		mShare, pShare := "-", "-"
		if totalMisp > 0 {
			mShare = fmt.Sprintf("%.0f%%", 100*float64(s.DirMispredicts)/float64(totalMisp))
		}
		if totalPen > 0 {
			pShare = fmt.Sprintf("%.0f%%", 100*s.Penalty/totalPen)
		}
		t.AddRow(s.Taxon.String(),
			fmt.Sprintf("%d", s.Static),
			fmt.Sprintf("%d", s.Execs),
			fmt.Sprintf("%d", s.DirMispredicts),
			fmt.Sprintf("%.2f", perKI(s.DirMispredicts, uint64(prof.Insts))),
			mShare,
			fmt.Sprintf("%d", s.Redirects),
			fmt.Sprintf("%.0f", s.Penalty),
			pShare,
		)
	}
	if err := t.Fprint(w); err != nil {
		return err
	}
	fmt.Fprintln(w)

	t2 := report.New("B2b: costliest hard-to-predict (H2P) branches",
		"pc", "execs", "bias", "subj acc", "ref acc", "subj misp", "penalty")
	for _, b := range prof.TopH2P(5) {
		t2.AddRow(fmt.Sprintf("%#x", b.PC),
			fmt.Sprintf("%d", b.Execs),
			fmt.Sprintf("%.2f", b.Bias()),
			fmt.Sprintf("%.3f", b.SubjectAccuracy()),
			fmt.Sprintf("%.3f", b.RefAccuracy()),
			fmt.Sprintf("%d", b.SubjectMiss),
			fmt.Sprintf("%.0f", b.Penalty),
		)
	}
	return t2.Fprint(w)
}
