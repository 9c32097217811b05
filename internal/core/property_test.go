package core

import (
	"math"
	"testing"
	"testing/quick"

	"intervalsim/internal/trace"
	"intervalsim/internal/uarch"
	"intervalsim/internal/workload"
)

// propWorkload derives a structurally valid workload configuration from a
// seed, spanning the generator's knob space (mirrors the derivation used by
// the uarch package's property tests so the two suites explore the same
// space).
func propWorkload(seed uint64) workload.Config {
	pick := func(shift uint, mod int) int { return int((seed >> shift) % uint64(mod)) }
	return workload.Config{
		Name: "prop", Seed: seed,
		Regions:          1 + pick(0, 12),
		BlocksPerRegion:  2 + pick(4, 16),
		BlockSize:        workload.Range{Min: 1 + pick(8, 4), Max: 5 + pick(10, 8)},
		LoopTrip:         workload.Range{Min: 1 + pick(12, 8), Max: 10 + pick(14, 30)},
		RegionTheta:      float64(pick(16, 15)) / 10,
		LoadFrac:         float64(pick(20, 30)) / 100,
		StoreFrac:        float64(pick(24, 15)) / 100,
		MulFrac:          float64(pick(26, 5)) / 100,
		DivFrac:          float64(pick(28, 2)) / 100,
		ChainProb:        float64(pick(30, 10)) / 10,
		RandomBranchFrac: float64(pick(34, 40)) / 100, RandomBranchBias: 0.5,
		PatternBranchFrac: float64(pick(38, 30)) / 100, TakenBias: 0.8 + float64(pick(42, 19))/100,
		DataFootprint: 64 << (10 + pick(46, 8)),
		StrideFrac:    float64(pick(50, 10)) / 10,
		Locality:      float64(pick(54, 18)) / 10,
	}
}

// randomConfigs derives 2–5 structurally distinct machine configurations
// from a seed: the axes a sweep varies (window, queue, depth, width), all on
// the baseline predictor and memory hierarchy.
func randomConfigs(seed uint64) []uarch.Config {
	pick := func(shift uint, mod int) int { return int((seed >> shift) % uint64(mod)) }
	cfgs := make([]uarch.Config, 2+pick(58, 4))
	for i := range cfgs {
		sh := uint(i * 7)
		c := uarch.Baseline()
		c.Name = "rand-" + string(rune('a'+i))
		c.FrontendDepth = 3 + pick(sh, 9)
		c.ROBSize = 32 + 16*pick(sh+2, 15)
		c.IQSize = min(8+8*pick(sh+4, 8), c.ROBSize) // the validator rejects a queue wider than the window
		w := 1 << pick(sh+6, 3)                      // 1, 2 or 4 wide
		c.FetchWidth, c.DispatchWidth, c.IssueWidth, c.CommitWidth = w, w, w, w
		cfgs[i] = c
	}
	return cfgs
}

// TestDecompositionIdentityProperty checks the decomposition identity
//
//	Total = Frontend + BaseILP + FULatency + ShortDMiss + LongDMiss + Residual
//
// on randomized workloads and random machine configurations simulated
// through the struct-of-arrays fast path (packed trace, precomputed
// dependences, pooled per-interval records) — the path every experiment
// runs on. The Frontend term must equal each configuration's own pipeline
// depth. A sampled run of every configuration must keep its extrapolation
// bookkeeping self-consistent: ordered CPI bounds, a unit-mean CPI close to
// the aggregate sampled CPI, and the packed-trace path with no fallback.
func TestDecompositionIdentityProperty(t *testing.T) {
	f := func(seed uint64) bool {
		wc := propWorkload(seed)
		if err := wc.Validate(); err != nil {
			t.Logf("seed %d produced invalid config: %v", seed, err)
			return false
		}
		tr, err := trace.ReadAll(workload.MustNew(wc, 20_000))
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		soa := trace.Pack(tr)
		for _, cfg := range randomConfigs(seed) {
			opts := uarch.Options{RecordMispredicts: true, RecordLoadLevels: true}
			res, err := uarch.Run(soa.Reader(), cfg, opts)
			if err != nil {
				t.Logf("seed %d %s: %v", seed, cfg.Name, err)
				return false
			}

			d, err := NewDecomposer(tr, res)
			if err != nil {
				t.Logf("seed %d %s: %v", seed, cfg.Name, err)
				return false
			}
			for i, b := range d.DecomposeAll() {
				sum := b.Frontend + b.BaseILP + b.FULatency + b.ShortDMiss + b.LongDMiss + b.Residual
				if math.Abs(sum-b.Total) > 1e-9 {
					t.Logf("seed %d %s breakdown %d: components sum to %v, total %v", seed, cfg.Name, i, sum, b.Total)
					return false
				}
				if b.Frontend != float64(cfg.FrontendDepth) {
					t.Logf("seed %d %s breakdown %d: frontend %v != depth %d", seed, cfg.Name, i, b.Frontend, cfg.FrontendDepth)
					return false
				}
				if b.BaseILP < 0 || b.FULatency < 0 || b.ShortDMiss < 0 || b.LongDMiss < 0 {
					t.Logf("seed %d %s breakdown %d: negative monotone component %+v", seed, cfg.Name, i, b)
					return false
				}
			}

			sampled, err := uarch.Run(soa.Reader(), cfg, uarch.Options{
				SampleStartSkip: 2_000, SampleDetailed: 1_500, SampleSkip: 3_000,
			})
			if err != nil {
				t.Logf("seed %d %s (sampled): %v", seed, cfg.Name, err)
				return false
			}
			st := sampled.Sample
			if !sampled.Sampled || st == nil || sampled.Path != "soa" || sampled.Fallback != "" {
				t.Logf("seed %d %s: sampled result lacks SampleStats, or took path %q with fallback %q",
					seed, cfg.Name, sampled.Path, sampled.Fallback)
				return false
			}
			if !(st.CPI.Lower <= st.CPI.Mean && st.CPI.Mean <= st.CPI.Upper) {
				t.Logf("seed %d %s: CPI interval out of order: %+v", seed, cfg.Name, st.CPI)
				return false
			}
			// The unit-mean estimator and the aggregate detailed-phase CPI
			// estimate the same quantity from the same few, equal-size units.
			agg := sampled.CPI()
			if agg <= 0 || st.CPI.Mean <= 0 || st.CPI.Mean/agg < 0.75 || st.CPI.Mean/agg > 1.25 {
				t.Logf("seed %d %s: unit-mean CPI %v far from aggregate %v", seed, cfg.Name, st.CPI.Mean, agg)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}
