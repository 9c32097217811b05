package experiments

import (
	"fmt"
	"io"
	"strings"

	"intervalsim/internal/core"
	"intervalsim/internal/report"
	"intervalsim/internal/uarch"
	"intervalsim/internal/workload"
)

// E6 varies the program's inherent ILP (dependence-chain density) while
// holding everything else fixed: contributor (iii). Lower ILP → slower
// window drain → larger penalty.
func E6(w io.Writer, p Params) error {
	cfg := uarch.Baseline()
	t := report.New("E6: effect of inherent ILP on the misprediction penalty (gzip variants)",
		"variant", "chain prob", "ILP beta", "K(ROB)", "avg penalty", "drain component")
	base, _ := workload.SuiteConfig("gzip")
	for _, wc := range workload.ILPVariants(base) {
		tr, res, err := run(wc, cfg, p)
		if err != nil {
			return err
		}
		char, err := unitCharacteristic(wc, p)
		if err != nil {
			return err
		}
		d, err := core.NewDecomposer(tr, res)
		if err != nil {
			return err
		}
		m := core.Mean(d.DecomposeAll())
		t.AddRow(wc.Name,
			fmt.Sprintf("%.2f", wc.ChainProb),
			fmt.Sprintf("%.2f", char.Beta),
			fmt.Sprintf("%.1f", char.EvalInterp(cfg.ROBSize)),
			fmt.Sprintf("%.1f", res.AvgMispredictPenalty()),
			fmt.Sprintf("%.1f", m.BaseILP),
		)
	}
	return t.Fprint(w)
}

// E7 scales every functional-unit latency: contributor (iv). The penalty
// grows with the latency factor because the resolution chain stretches.
func E7(w io.Writer, p Params) error {
	t := report.New("E7: effect of functional-unit latency scaling on the misprediction penalty",
		"benchmark", "×1 penalty", "×2 penalty", "×3 penalty", "×1 FU comp", "×2 FU comp", "×3 FU comp")
	for _, name := range []string{"gzip", "crafty", "twolf"} {
		wc, ok := workload.SuiteConfig(name)
		if !ok {
			return fmt.Errorf("experiments: unknown benchmark %s", name)
		}
		var pens, comps []float64
		for _, factor := range []float64{1, 2, 3} {
			cfg := uarch.Baseline()
			cfg.FU = cfg.FU.Scale(factor)
			tr, res, err := run(wc, cfg, p)
			if err != nil {
				return err
			}
			d, err := core.NewDecomposer(tr, res)
			if err != nil {
				return err
			}
			m := core.Mean(d.DecomposeAll())
			pens = append(pens, res.AvgMispredictPenalty())
			comps = append(comps, m.FULatency)
		}
		t.AddRow(name,
			fmt.Sprintf("%.1f", pens[0]), fmt.Sprintf("%.1f", pens[1]), fmt.Sprintf("%.1f", pens[2]),
			fmt.Sprintf("%.1f", comps[0]), fmt.Sprintf("%.1f", comps[1]), fmt.Sprintf("%.1f", comps[2]),
		)
	}
	return t.Fprint(w)
}

// E8 varies the data footprint of one benchmark so the short (L1) D-cache
// miss rate sweeps from near zero to substantial: contributor (v).
func E8(w io.Writer, p Params) error {
	cfg := uarch.Baseline()
	t := report.New("E8: effect of short (L1) D-cache misses on the misprediction penalty (crafty variants)",
		"data footprint", "shortD/KI", "longD/KI", "avg penalty", "shortD component")
	base, _ := workload.SuiteConfig("crafty")
	for _, foot := range []int{32 << 10, 128 << 10, 512 << 10, 1 << 20} {
		wc := base
		wc.Name = fmt.Sprintf("crafty-%dKB", foot>>10)
		wc.DataFootprint = foot
		// Spread accesses so L1 capacity is genuinely exceeded as the
		// footprint grows.
		wc.Locality = 0.4
		tr, res, err := run(wc, cfg, p)
		if err != nil {
			return err
		}
		d, err := core.NewDecomposer(tr, res)
		if err != nil {
			return err
		}
		m := core.Mean(d.DecomposeAll())
		t.AddRow(fmt.Sprintf("%d KB", foot>>10),
			fmt.Sprintf("%.2f", perKI(res.ShortDMisses, res.Insts)),
			fmt.Sprintf("%.2f", perKI(res.LongDMisses, res.Insts)),
			fmt.Sprintf("%.1f", res.AvgMispredictPenalty()),
			fmt.Sprintf("%.1f", m.ShortDMiss),
		)
	}
	return t.Fprint(w)
}

// E9 validates the analytic interval model: predicted CPI (from the
// functional profile + ILP characteristic only) against the cycle-level
// simulator, plus predicted vs measured average misprediction penalty.
func E9(w io.Writer, p Params) error {
	cfg := uarch.Baseline()
	t := report.New("E9: analytic interval model vs cycle-level simulation",
		"benchmark", "sim CPI", "model CPI", "CPI err%", "sim penalty", "model penalty")
	for _, wc := range workload.Suite() {
		_, res, err := run(wc, cfg, p)
		if err != nil {
			return err
		}
		prof, err := profileFor(wc, cfg, p)
		if err != nil {
			return err
		}
		m, err := modelFor(wc, cfg, prof, p)
		if err != nil {
			return err
		}
		pred, err := m.PredictCPI(prof)
		if err != nil {
			return err
		}
		relErr, err := core.ValidationError(pred, res)
		if err != nil {
			return err
		}
		t.AddRow(wc.Name,
			fmt.Sprintf("%.2f", res.CPI()),
			fmt.Sprintf("%.2f", pred.CPI()),
			fmt.Sprintf("%+.1f", relErr*100),
			fmt.Sprintf("%.1f", res.AvgMispredictPenalty()),
			fmt.Sprintf("%.1f", pred.AvgMispredictPenalty()),
		)
	}
	return t.Fprint(w)
}

// E10 sweeps the frontend depth and the ROB size: the penalty tracks the
// depth additively (contributor i) and grows with window size until the
// program's ILP, not the window, limits the drain.
func E10(w io.Writer, p Params) error {
	wc, _ := workload.SuiteConfig("crafty")

	t := report.New("E10a: average misprediction penalty vs frontend pipeline depth (crafty)",
		"frontend depth", "avg penalty", "penalty - depth", "IPC")
	for _, depth := range []int{3, 5, 7, 9, 11, 13, 15} {
		cfg := uarch.Baseline()
		cfg.FrontendDepth = depth
		_, res, err := run(wc, cfg, p)
		if err != nil {
			return err
		}
		pen := res.AvgMispredictPenalty()
		t.AddRow(fmt.Sprintf("%d", depth),
			fmt.Sprintf("%.1f", pen),
			fmt.Sprintf("%.1f", pen-float64(depth)),
			fmt.Sprintf("%.2f", res.IPC()),
		)
	}
	if err := t.Fprint(w); err != nil {
		return err
	}
	fmt.Fprintln(w)

	t2 := report.New("E10b: average misprediction penalty vs window (ROB) size (crafty)",
		"ROB", "IQ", "avg penalty", "mean occupancy", "IPC")
	for _, rob := range []int{32, 64, 128, 256} {
		cfg := uarch.Baseline()
		cfg.ROBSize = rob
		cfg.IQSize = rob / 2
		tr, res, err := run(wc, cfg, p)
		if err != nil {
			return err
		}
		d, err := core.NewDecomposer(tr, res)
		if err != nil {
			return err
		}
		m := core.Mean(d.DecomposeAll())
		t2.AddRow(fmt.Sprintf("%d", rob), fmt.Sprintf("%d", rob/2),
			fmt.Sprintf("%.1f", res.AvgMispredictPenalty()),
			fmt.Sprintf("%d", m.Occupancy),
			fmt.Sprintf("%.2f", res.IPC()),
		)
	}
	return t2.Fprint(w)
}

// Order lists every experiment id in canonical presentation order: the
// order All and RunAll emit them, and the row order of the pass/fail table.
// A3 stays last: it is the one experiment with a wall-clock-derived cell,
// and everything before it must be byte-deterministic (see parallel_test).
func Order() []string {
	return []string{"t1", "t2", "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8",
		"e9", "e10", "e11", "a1", "a2", "e12", "a4", "b1", "b2", "c1", "c2", "a3"}
}

// All runs every experiment in order, separated by blank lines. It aborts at
// the first failure; use RunAll for fail-soft parallel regeneration.
func All(w io.Writer, p Params) error {
	reg := Registry()
	for _, id := range Order() {
		if err := reg[id](w, p); err != nil {
			return fmt.Errorf("%s: %w", strings.ToUpper(id), err)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// Registry maps experiment ids to runners, for the CLI.
func Registry() map[string]func(io.Writer, Params) error {
	return map[string]func(io.Writer, Params) error{
		"t1":  func(w io.Writer, _ Params) error { return T1(w) },
		"t2":  T2,
		"e1":  E1,
		"e2":  E2,
		"e3":  E3,
		"e4":  E4,
		"e5":  E5,
		"e6":  E6,
		"e7":  E7,
		"e8":  E8,
		"e9":  E9,
		"e10": E10,
		"e11": E11,
		"a1":  A1,
		"a2":  A2,
		"e12": E12,
		"a3":  A3,
		"a4":  A4,
		"b1":  B1,
		"b2":  B2,
		"c1":  C1,
		"c2":  C2,
	}
}
