// Pipeline depth sweep: measure the average misprediction penalty while
// sweeping the frontend pipeline depth, and compare with the analytic
// interval model's prediction — contributor (i) is additive, and the rest of
// the penalty (the window drain) is independent of the depth.
//
// Run with:
//
//	go run ./examples/pipelinedepth
package main

import (
	"fmt"
	"log"
	"os"

	"intervalsim/internal/core"
	"intervalsim/internal/overlay"
	"intervalsim/internal/report"
	"intervalsim/internal/trace"
	"intervalsim/internal/uarch"
	"intervalsim/internal/workload"
)

func main() {
	wc, ok := workload.SuiteConfig("crafty")
	if !ok {
		log.Fatal("benchmark not found")
	}
	soa, err := trace.PackReader(workload.MustNew(wc, 400_000))
	if err != nil {
		log.Fatal(err)
	}

	// The analytic side needs only a functional profile (predictor + caches,
	// no timing) and the program's ILP characteristics. The depth changes
	// neither, so one model set, over one speculation pre-pass, serves every
	// depth.
	base := uarch.Baseline()
	ov, err := overlay.Compute(soa, base.Pred, base.Mem)
	if err != nil {
		log.Fatal(err)
	}
	set, err := core.NewModelSet(soa, ov, base, base.ROBSize, 100_000, soa.Len())
	if err != nil {
		log.Fatal(err)
	}

	t := report.New("misprediction penalty vs frontend pipeline depth (crafty)",
		"depth", "measured penalty", "model penalty", "measured - depth")
	for _, depth := range []int{3, 5, 8, 11, 14} {
		cfg := base
		cfg.FrontendDepth = depth

		res, err := uarch.Run(soa.Reader(), cfg, uarch.Options{
			RecordMispredicts: true,
			WarmupInsts:       100_000,
		})
		if err != nil {
			log.Fatal(err)
		}

		model, prof, err := set.For(cfg)
		if err != nil {
			log.Fatal(err)
		}
		pred, err := model.PredictCPI(prof)
		if err != nil {
			log.Fatal(err)
		}

		measured := res.AvgMispredictPenalty()
		t.AddRow(fmt.Sprintf("%d", depth),
			fmt.Sprintf("%.1f", measured),
			fmt.Sprintf("%.1f", pred.AvgMispredictPenalty()),
			fmt.Sprintf("%.1f", measured-float64(depth)),
		)
	}
	if err := t.Fprint(os.Stdout); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nThe last column is nearly constant: the frontend contributes exactly its")
	fmt.Println("depth, and everything above it is window drain — which a deeper pipeline")
	fmt.Println("does not change. Equating the penalty with the pipeline length therefore")
	fmt.Println("underestimates it by that constant, exactly the paper's point.")
}
