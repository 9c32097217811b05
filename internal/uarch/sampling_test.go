package uarch

import (
	"fmt"
	"testing"

	"intervalsim/internal/cache"
	"intervalsim/internal/overlay"
	"intervalsim/internal/trace"
	"intervalsim/internal/vpred"
	"intervalsim/internal/workload"
)

// Sampling parameters of the statistical acceptance tests: 2k-instruction
// detailed phases every 10k instructions (20% detail fraction) after a 20k
// cold-start skip — 38 measurement units, enough for the Student-t interval
// to localize CPI while per-unit ROB ramp-in noise stays inside it.
const (
	ciTestInsts     = 400_000
	ciTestStartSkip = 20_000
	ciTestDetailed  = 2_000
	ciTestSkip      = 8_000
)

// samplingFamilies returns the fixed seed matrix of trace families the
// statistical tests run over: the named suite generators plus seeded random
// workloads. Everything is derived from constants, so the test is exactly
// reproducible — CI runs it as a deterministic gate, not a flake source.
func samplingFamilies(t *testing.T) map[string]workload.Config {
	t.Helper()
	fams := make(map[string]workload.Config)
	for _, name := range []string{"gzip", "mcf", "crafty", "vpr"} {
		wc, ok := workload.SuiteConfig(name)
		if !ok {
			t.Fatalf("unknown benchmark %s", name)
		}
		fams[name] = wc
	}
	for _, seed := range []uint64{0x1badb002, 0x2badf00d, 0x3defaced, 0x5eedcafe, 0x7ab1e5ea, 0x90bada55} {
		wc := randomWorkload(seed)
		if err := wc.Validate(); err != nil {
			// A seed outside the generator's bounds would be a permanent,
			// loud skip — the matrix above is chosen to be fully valid.
			t.Fatalf("seed %#x produced invalid workload: %v", seed, err)
		}
		fams[fmt.Sprintf("rand-%#x", seed)] = wc
	}
	return fams
}

// TestSampledCIStructure checks the statistical bookkeeping of one sampled
// run: the Result carries SampleStats with a plausible unit count and
// well-ordered intervals, and full runs carry none.
func TestSampledCIStructure(t *testing.T) {
	wc, _ := workload.SuiteConfig("gzip")
	tr, err := trace.ReadAll(workload.MustNew(wc, ciTestInsts))
	if err != nil {
		t.Fatal(err)
	}
	soa := trace.Pack(tr)

	full, err := Run(soa.Reader(), Baseline(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if full.Sample != nil {
		t.Fatalf("full run carries SampleStats: %+v", full.Sample)
	}

	sampled, err := Run(soa.Reader(), Baseline(), Options{
		SampleStartSkip: ciTestStartSkip,
		SampleDetailed:  ciTestDetailed,
		SampleSkip:      ciTestSkip,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := sampled.Sample
	if st == nil {
		t.Fatal("sampled run carries no SampleStats")
	}
	wantUnits := (ciTestInsts - ciTestStartSkip) / (ciTestDetailed + ciTestSkip)
	if st.Units < wantUnits-1 || st.Units > wantUnits+1 {
		t.Errorf("units = %d, want about %d", st.Units, wantUnits)
	}
	if st.Confidence != 0.95 {
		t.Errorf("confidence = %v, want 0.95", st.Confidence)
	}
	for name, iv := range map[string]Interval{
		"CPI": st.CPI, "MispredictsPKI": st.MispredictsPKI, "LongDMissesPKI": st.LongDMissesPKI,
	} {
		if !(iv.Lower <= iv.Mean && iv.Mean <= iv.Upper) {
			t.Errorf("%s interval out of order: %+v", name, iv)
		}
		if iv.RelErr < 0 {
			t.Errorf("%s RelErr negative: %+v", name, iv)
		}
	}
	if st.CPI.Mean <= 0 {
		t.Errorf("CPI mean = %v, want > 0", st.CPI.Mean)
	}
	// The interval is centered on the ratio estimator, which by construction
	// equals the aggregate detailed-phase CPI the Result reports (up to
	// trailing drain cycles that close after the last counted unit).
	if cpi := sampled.CPI(); st.CPI.Mean < 0.98*cpi || st.CPI.Mean > 1.02*cpi {
		t.Errorf("ratio-estimator CPI %.4f != aggregate sampled CPI %.4f", st.CPI.Mean, cpi)
	}
}

// TestSampledCICoversFullRun is the statistical acceptance gate for sampled
// simulation: across the fixed matrix of trace families, the sampled run's
// reported CPI confidence interval must cover the full-run CPI of the same
// trace. One miss is tolerated — a 95% interval over ten families is
// expected to miss occasionally, and the matrix is fixed precisely so the
// observed outcome never drifts between runs.
func TestSampledCICoversFullRun(t *testing.T) {
	cfg := Baseline()
	var misses []string
	fams := samplingFamilies(t)
	for name, wc := range fams {
		tr, err := trace.ReadAll(workload.MustNew(wc, ciTestInsts))
		if err != nil {
			t.Fatal(err)
		}
		soa := trace.Pack(tr)

		// The full-run reference excludes the same cold-start region the
		// sampled run skips, so the two estimate the same steady state.
		full, err := Run(soa.Reader(), cfg, Options{WarmupInsts: ciTestStartSkip})
		if err != nil {
			t.Fatal(err)
		}
		sampled, err := Run(soa.Reader(), cfg, Options{
			SampleStartSkip: ciTestStartSkip,
			SampleDetailed:  ciTestDetailed,
			SampleSkip:      ciTestSkip,
		})
		if err != nil {
			t.Fatal(err)
		}
		st := sampled.Sample
		if st == nil {
			t.Fatalf("%s: sampled run carries no SampleStats", name)
		}
		fullCPI := full.CPI()
		if !st.CPI.Covers(fullCPI) {
			misses = append(misses, fmt.Sprintf("%s: full CPI %.4f outside [%.4f, %.4f] (mean %.4f, %d units)",
				name, fullCPI, st.CPI.Lower, st.CPI.Upper, st.CPI.Mean, st.Units))
		}
		// Even a covering interval is useless if it is vacuously wide: the
		// sampled estimate must localize CPI to a usable precision.
		if st.CPI.RelErr > 0.25 {
			t.Errorf("%s: CPI relative error %.1f%% — interval too wide to be useful", name, 100*st.CPI.RelErr)
		}
	}
	if len(misses) > 1 {
		t.Errorf("CPI interval missed the full-run CPI in %d/%d families (tolerance 1):\n%s",
			len(misses), len(fams), joinLines(misses))
	} else if len(misses) == 1 {
		t.Logf("one tolerated interval miss (95%% confidence over %d families): %s", len(fams), misses[0])
	}
}

// TestSkipWarmingMatchesOverlay pins functional warming to the overlay
// pre-pass, which runs the branch predictor, the L1 I-cache and the value
// predictor over every instruction of the trace in program order. The skip
// phases must warm them with the identical access sequence, so that every
// detailed instruction sees the outcome the pre-pass recorded for it. At
// every width fetch stops the group at the end of a detailed phase, so each
// phase is exactly SampleDetailed instructions — the ranges
// [S0+k(D+K), S0+k(D+K)+D) — and the sampled run's counts must equal the
// overlay's outcome bits summed over those ranges.
func TestSkipWarmingMatchesOverlay(t *testing.T) {
	const insts = 200_000
	opts := Options{
		SampleStartSkip: ciTestStartSkip,
		SampleDetailed:  ciTestDetailed,
		SampleSkip:      ciTestSkip,
	}
	cfg := Baseline()
	for _, name := range []string{"gcc", "crafty", "mcf", "vortex"} {
		wc, _ := workload.SuiteConfig(name)
		soa := packedTrace(t, name, insts)
		vp, _ := vpred.Preset("stride")
		vp.Stream = wc.ValueStream()
		for _, vpc := range []*vpred.Config{nil, &vp} {
			cfg.VPred = vpc
			ov, err := overlay.ComputeSpec(soa, cfg.Pred, cfg.Mem, cfg.VPred)
			if err != nil {
				t.Fatal(err)
			}
			var want Result
			for lo := opts.SampleStartSkip; lo < insts; lo += opts.SampleDetailed + opts.SampleSkip {
				for i := int(lo); i < int(min(lo+opts.SampleDetailed, insts)); i++ {
					want.Insts++
					if ov.Mispredicted(i) {
						want.Mispredicts++
					}
					if lvl, ok := ov.IClass(i); ok && lvl != cache.L1Hit {
						want.ICacheMisses++
					}
					if ov.ValuePredHit(i) {
						want.ValuePredHits++
					}
					if ov.ValueMisspec(i) {
						want.ValueMisspecs++
					}
				}
			}
			for _, w := range []int{1, 2, 4, 8} {
				cfg.FetchWidth, cfg.DispatchWidth, cfg.IssueWidth, cfg.CommitWidth = w, w, w, w
				got, err := Run(soa.Reader(), cfg, opts)
				if err != nil {
					t.Fatal(err)
				}
				for _, f := range []struct {
					name      string
					want, got uint64
				}{
					{"Insts", want.Insts, got.Insts},
					{"Mispredicts", want.Mispredicts, got.Mispredicts},
					{"ICacheMisses", want.ICacheMisses, got.ICacheMisses},
					{"ValuePredHits", want.ValuePredHits, got.ValuePredHits},
					{"ValueMisspecs", want.ValueMisspecs, got.ValueMisspecs},
				} {
					if f.want != f.got {
						t.Errorf("w%d %s (vpred %v): %s = %d, overlay over the detailed ranges says %d",
							w, name, vpc != nil, f.name, f.got, f.want)
					}
				}
			}
		}
	}
}

// TestSampledEventIndicesAreDispatchOrder pins the index space of a sampled
// run: events and mispredict records index dispatch order (Result.Sampled),
// so every index lies below the number of instructions dispatched, and the
// I-cache misses that open many detailed phases sit among them rather than
// at the trace positions of the instructions that missed.
func TestSampledEventIndicesAreDispatchOrder(t *testing.T) {
	soa := packedTrace(t, "gcc", 200_000)
	res, err := Run(soa.Reader(), Baseline(), Options{
		RecordEvents:      true,
		RecordMispredicts: true,
		SampleStartSkip:   ciTestStartSkip,
		SampleDetailed:    ciTestDetailed,
		SampleSkip:        ciTestSkip,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Sampled {
		t.Fatal("run not marked sampled")
	}
	// Every dispatched instruction commits, so Insts is the dispatch count.
	kinds := map[EventKind]int{}
	for _, ev := range res.Events {
		kinds[ev.Kind]++
		if ev.Index >= res.Insts {
			t.Errorf("%s event at index %d, but only %d instructions dispatched", ev.Kind, ev.Index, res.Insts)
		}
	}
	if kinds[EvICacheMiss] == 0 || kinds[EvBranchMispredict] == 0 {
		t.Fatalf("too few events to check: %v", kinds)
	}
	for _, r := range res.Records {
		if r.Index >= res.Insts || r.SinceLastMiss > r.Index {
			t.Errorf("record %+v outside the %d dispatched instructions", r, res.Insts)
		}
	}
}

func joinLines(xs []string) string {
	out := ""
	for i, x := range xs {
		if i > 0 {
			out += "\n"
		}
		out += "  " + x
	}
	return out
}
