package experiments

import (
	"testing"

	"intervalsim/internal/bpred"
	"intervalsim/internal/predictability"
	"intervalsim/internal/uarch"
	"intervalsim/internal/workload"
)

// TestB1TageBeatsTournament is the headline acceptance check of the modern
// predictor family: at the tournament's own storage budget, TAGE must
// deliver fewer mispredicts per kilo-instruction on at least one suite
// workload. (It usually wins on all of them; requiring one keeps the test
// robust to sizing changes.)
func TestB1TageBeatsTournament(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment skipped in -short mode")
	}
	p := goldenParams()
	budget := bpred.Config{Kind: "tournament", Entries: 16384, HistBits: 12}.StorageBits()
	tage, ok := bpred.ConfigForBudget("tage", budget)
	if !ok {
		t.Fatal("no tage sizing fits the tournament budget")
	}
	tour, ok := bpred.ConfigForBudget("tournament", budget)
	if !ok {
		t.Fatal("no tournament sizing fits its own budget")
	}
	if tour.StorageBits() != budget {
		t.Fatalf("tournament does not exactly refit its own budget: %d vs %d", tour.StorageBits(), budget)
	}
	wins := 0
	for _, name := range []string{"crafty", "twolf"} {
		wc, _ := workload.SuiteConfig(name)
		mpki := func(spec bpred.Config) float64 {
			cfg := uarch.Baseline()
			cfg.Pred = spec
			_, res, err := run(wc, cfg, p)
			if err != nil {
				t.Fatalf("%s with %s: %v", name, spec.Kind, err)
			}
			return perKI(res.Mispredicts, res.Insts)
		}
		tageMPKI, tourMPKI := mpki(tage), mpki(tour)
		t.Logf("%s: tage %.2f MPKI vs tournament %.2f MPKI (budget %d bits)", name, tageMPKI, tourMPKI, budget)
		if tageMPKI < tourMPKI {
			wins++
		}
	}
	if wins == 0 {
		t.Error("tage beat tournament MPKI on no workload at equal storage budget")
	}
}

// TestB2H2PMajority pins B2's acceptance property: on the history-heavy
// crafty variant, the hard-to-predict taxon must supply the majority of the
// subject's direction mispredicts — the taxa machinery exists to expose
// exactly that concentration.
func TestB2H2PMajority(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment skipped in -short mode")
	}
	p := goldenParams()
	st, err := suiteTraceFor(b2Workload(), p.Insts)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := predictability.Collect(st.SoA, predictability.Options{Warmup: int(p.Warmup)})
	if err != nil {
		t.Fatal(err)
	}
	var h2p uint64
	for _, s := range prof.Summaries() {
		if s.Taxon == predictability.TaxonH2P {
			h2p = s.DirMispredicts
		}
	}
	total := prof.TotalDirMispredicts()
	if total == 0 {
		t.Fatal("no direction mispredicts counted")
	}
	if 2*h2p <= total {
		t.Errorf("h2p supplies %d of %d direction mispredicts, want a majority", h2p, total)
	}
}
