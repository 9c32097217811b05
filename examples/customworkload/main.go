// Custom workload and custom machine: build your own synthetic program and
// processor configuration instead of using the built-in suite and baseline.
// This example constructs a branchy, low-ILP workload, runs it on a narrow
// deep-pipeline machine and on a wide shallow one, and compares where the
// misprediction penalty comes from on each.
//
// Run with:
//
//	go run ./examples/customworkload
package main

import (
	"fmt"
	"log"
	"os"

	"intervalsim/internal/cache"
	"intervalsim/internal/core"
	"intervalsim/internal/report"
	"intervalsim/internal/trace"
	"intervalsim/internal/uarch"
	"intervalsim/internal/workload"
)

func main() {
	// A hand-rolled workload: hard-to-predict branches on long dependence
	// chains, with a data set that lives comfortably in the L2.
	wl := workload.Config{
		Name: "branchy", Seed: 2026,
		Regions: 12, BlocksPerRegion: 12,
		BlockSize: workload.Range{Min: 4, Max: 8},
		LoopTrip:  workload.Range{Min: 6, Max: 24}, RegionTheta: 0.7,
		LoadFrac: 0.25, StoreFrac: 0.10, MulFrac: 0.03, DivFrac: 0.003,
		ChainProb:        0.7,
		RandomBranchFrac: 0.25, RandomBranchBias: 0.5,
		PatternBranchFrac: 0.10, TakenBias: 0.92,
		DataFootprint: 256 << 10, StrideFrac: 0.3, Locality: 1.2,
	}
	if err := wl.Validate(); err != nil {
		log.Fatal(err)
	}
	tr, err := trace.ReadAll(workload.MustNew(wl, 400_000))
	if err != nil {
		log.Fatal(err)
	}
	// Pack once: both machines simulate the same packed trace.
	soa := trace.Pack(tr)

	// Two machines built from scratch rather than from Baseline().
	narrowDeep := machine("narrow-deep", 2, 14, 64)
	wideShallow := machine("wide-shallow", 6, 4, 192)

	t := report.New("one workload, two machines",
		"machine", "IPC", "avg penalty", "frontend", "drain+FU+D$", "residual")
	for _, cfg := range []uarch.Config{narrowDeep, wideShallow} {
		res, err := uarch.Run(soa.Reader(), cfg, uarch.Options{
			RecordEvents:      true,
			RecordMispredicts: true,
			RecordLoadLevels:  true,
			WarmupInsts:       100_000,
		})
		if err != nil {
			log.Fatal(err)
		}
		dec, err := core.NewDecomposer(tr, res)
		if err != nil {
			log.Fatal(err)
		}
		m := core.Mean(dec.DecomposeAll())
		t.AddRow(cfg.Name,
			fmt.Sprintf("%.2f", res.IPC()),
			fmt.Sprintf("%.1f", m.Total),
			fmt.Sprintf("%.1f", m.Frontend),
			fmt.Sprintf("%.1f", m.BaseILP+m.FULatency+m.ShortDMiss+m.LongDMiss),
			fmt.Sprintf("%.1f", m.Residual),
		)
	}
	if err := t.Fprint(os.Stdout); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nOn the deep narrow machine the refill dominates; on the wide shallow one")
	fmt.Println("the same program pays mostly window drain — the five contributors shift")
	fmt.Println("with the design, which is why a single 'pipeline length' number misleads.")
}

// machine builds a processor configuration from scratch: width-wide,
// depth-stage frontend, rob-entry window, with FU counts scaled to width.
func machine(name string, width, depth, rob int) uarch.Config {
	return uarch.Config{
		Name:          name,
		FetchWidth:    width,
		DispatchWidth: width,
		IssueWidth:    width,
		CommitWidth:   width,
		FrontendDepth: depth,
		ROBSize:       rob,
		IQSize:        rob / 2,
		FU: uarch.FUs{
			IntALU:  uarch.FUPool{Count: width, Latency: 1, Pipelined: true},
			IntMul:  uarch.FUPool{Count: 2, Latency: 3, Pipelined: true},
			IntDiv:  uarch.FUPool{Count: 1, Latency: 20, Pipelined: false},
			FPAdd:   uarch.FUPool{Count: 2, Latency: 2, Pipelined: true},
			FPMul:   uarch.FUPool{Count: 1, Latency: 4, Pipelined: true},
			FPDiv:   uarch.FUPool{Count: 1, Latency: 12, Pipelined: false},
			MemPort: uarch.FUPool{Count: 2, Latency: 1, Pipelined: true},
		},
		Pred: uarch.PredictorSpec{Kind: "gshare", Entries: 8192, HistBits: 11, BTBEntries: 2048},
		Mem: cache.HierarchyConfig{
			L1I: cache.Config{Name: "L1I", Size: 32 << 10, LineSize: 64, Ways: 2, Repl: cache.LRU},
			L1D: cache.Config{Name: "L1D", Size: 32 << 10, LineSize: 64, Ways: 4, Repl: cache.LRU},
			L2:  cache.Config{Name: "L2", Size: 512 << 10, LineSize: 64, Ways: 8, Repl: cache.LRU},
			Lat: cache.Latencies{L1: 2, L2: 10, Mem: 200},
		},
	}
}
