// Model validation walkthrough: build the analytic interval model for one
// benchmark — functional profile (no timing), ILP characteristics, penalty
// model — then compare its CPI stack against the cycle-level simulator.
// This is the paper's methodology end to end in one file.
//
// Run with:
//
//	go run ./examples/modelvalidation
package main

import (
	"fmt"
	"log"

	"intervalsim/internal/core"
	"intervalsim/internal/ilp"
	"intervalsim/internal/overlay"
	"intervalsim/internal/trace"
	"intervalsim/internal/uarch"
	"intervalsim/internal/workload"
)

func main() {
	const (
		insts  = 600_000
		warmup = 150_000
	)
	wc, ok := workload.SuiteConfig("parser")
	if !ok {
		log.Fatal("benchmark not found")
	}
	cfg := uarch.Baseline()
	soa, err := trace.PackReader(workload.MustNew(wc, insts))
	if err != nil {
		log.Fatal(err)
	}

	// Step 1 — speculation pre-pass: drive only the branch predictor and the
	// caches over the trace, in program order and with no timing, and record
	// every outcome in an overlay.
	ov, err := overlay.Compute(soa, cfg.Pred, cfg.Mem)
	if err != nil {
		log.Fatal(err)
	}

	// Step 2 — the model: a model set reads the functional profile (the
	// miss-event population) off the overlay, and measures the ILP
	// characteristics — critical-path statistics of the program under
	// machine latencies, plus the branch-resolution curve — on the packed
	// trace. The inherent ILP printed below is not a model input: it is the
	// same critical-path statistic under unit latencies, measured here over
	// the windows the model uses (powers of two below the ROB, then the ROB).
	set, err := core.NewModelSet(soa, ov, cfg, cfg.ROBSize, warmup, insts)
	if err != nil {
		log.Fatal(err)
	}
	model, prof, err := set.For(cfg)
	if err != nil {
		log.Fatal(err)
	}
	var ladder []int
	for w := 2; w < cfg.ROBSize; w *= 2 {
		ladder = append(ladder, w)
	}
	unit, err := ilp.Profile(soa, append(ladder, cfg.ROBSize), ilp.UnitLatencies(), insts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("functional profile: %d mispredicts, %d I$ misses, %d long D-misses (%d serial)\n",
		prof.Mispredicts, prof.ICacheMisses, prof.LongDMisses, prof.LongSerial)
	fmt.Printf("ILP characteristic: K(%d) = %.1f (unit), beta = %.2f\n",
		cfg.ROBSize, unit.EvalInterp(cfg.ROBSize), unit.Beta)
	fmt.Printf("penalty model: P(8) = %.1f, P(64) = %.1f, P(saturated) = %.1f cycles\n",
		model.MispredictPenalty(8), model.MispredictPenalty(64),
		model.MispredictPenalty(uint64(cfg.ROBSize)))

	// Step 3 — predict the cycle stack analytically (no timing simulation).
	pred, err := model.PredictCPI(prof)
	if err != nil {
		log.Fatal(err)
	}

	// Step 4 — the expensive ground truth: cycle-level simulation.
	res, err := uarch.Run(soa.Reader(), cfg, uarch.Options{WarmupInsts: warmup})
	if err != nil {
		log.Fatal(err)
	}
	relErr, err := core.ValidationError(pred, res)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println()
	fmt.Printf("model cycle stack  : base %.0f + bpred %.0f + I$ %.0f + longD %.0f = %.0f cycles\n",
		pred.Base, pred.Bpred, pred.ICache, pred.LongData, pred.Total())
	fmt.Printf("model CPI          : %.3f\n", pred.CPI())
	fmt.Printf("simulated CPI      : %.3f\n", res.CPI())
	fmt.Printf("model error        : %+.1f%%\n", relErr*100)
	fmt.Println("\nThe model used only in-order functional simulation plus dependence")
	fmt.Println("statistics — no cycle-level timing — which is the point of interval")
	fmt.Println("analysis: understanding (and predicting) where the cycles go.")
}
