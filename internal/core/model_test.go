package core

import (
	"math"
	"testing"

	"intervalsim/internal/isa"
	"intervalsim/internal/overlay"
	"intervalsim/internal/trace"
	"intervalsim/internal/uarch"
	"intervalsim/internal/workload"
)

// memWorkload is a pointer-chase-flavoured configuration with substantial
// long-miss traffic, for exercising the serial-miss machinery.
func memWorkload() workload.Config {
	c := testWorkload()
	c.Name = "core-mem"
	c.DataFootprint = 8 << 20
	c.Locality = 0.6
	c.ChainProb = 0.75
	c.LoadFrac = 0.32
	return c
}

func buildFor(t *testing.T, wc workload.Config) (*Model, *Profile, *uarch.Result) {
	t.Helper()
	cfg := uarch.Baseline()
	tr, res := runDetailed(t, wc, cfg)
	m, prof := dedicatedModel(t, trace.Pack(tr), cfg, 0)
	return m, prof, res
}

func TestSerialMissesDetectedOnPointerChase(t *testing.T) {
	_, prof, _ := buildFor(t, memWorkload())
	if prof.LongDMisses == 0 {
		t.Fatal("memory workload produced no long misses")
	}
	if prof.LongSerial == 0 {
		t.Error("no serial long misses detected on a chained memory workload")
	}
	if prof.LongSerial > prof.LongDMisses {
		t.Errorf("serial (%d) exceeds total (%d)", prof.LongSerial, prof.LongDMisses)
	}
	serialEvents := 0
	for _, ev := range prof.Events {
		if ev.Serial {
			if ev.Kind != uarch.EvBranchMispredict && ev.Kind != uarch.EvICacheMiss {
				serialEvents++
			} else {
				t.Fatalf("non-load event marked serial: %+v", ev)
			}
		}
	}
	if uint64(serialEvents) != prof.LongSerial {
		t.Errorf("serial events %d != counter %d", serialEvents, prof.LongSerial)
	}
}

func TestModelOptionsMoveCPIPredictably(t *testing.T) {
	m, prof, _ := buildFor(t, memWorkload())
	predict := func(opts ModelOptions) float64 {
		m.Opts = opts
		b, err := m.PredictCPI(prof)
		if err != nil {
			t.Fatal(err)
		}
		return b.CPI()
	}
	full := predict(ModelOptions{})
	noSerial := predict(ModelOptions{NoSerialMisses: true})
	noCredit := predict(ModelOptions{NoOverlapCredit: true})
	noFetch := predict(ModelOptions{NoFetchCap: true})
	naive := predict(ModelOptions{NaiveResolution: true})

	if noSerial >= full {
		t.Errorf("dropping serial-miss detection must lower predicted CPI: %v vs %v", noSerial, full)
	}
	if noCredit <= full {
		t.Errorf("dropping overlap credit must raise predicted CPI: %v vs %v", noCredit, full)
	}
	if noFetch > full {
		t.Errorf("dropping the fetch cap must not raise CPI: %v vs %v", noFetch, full)
	}
	if naive < full {
		t.Errorf("naive resolution must not lower CPI: %v vs %v", naive, full)
	}
}

func TestFullModelAccuracyWithMatchedWarmup(t *testing.T) {
	// Mirror the E9 conditions: identical warmup on the detailed and the
	// functional side, on a memory-heavy workload. The first-order model
	// should land within a few tens of percent even here, and the serial
	// (pointer-chase) refinement must move the prediction toward the
	// simulator compared with assuming full miss overlap.
	const warm = 100_000
	wc := memWorkload()
	cfg := uarch.Baseline()
	tr, err := trace.ReadAll(workload.MustNew(wc, testLen))
	if err != nil {
		t.Fatal(err)
	}
	res, err := uarch.Run(tr.Reader(), cfg, uarch.Options{WarmupInsts: warm})
	if err != nil {
		t.Fatal(err)
	}
	m, prof := dedicatedModel(t, trace.Pack(tr), cfg, warm)
	errOf := func(opts ModelOptions) float64 {
		m.Opts = opts
		b, err := m.PredictCPI(prof)
		if err != nil {
			t.Fatal(err)
		}
		rel, err := ValidationError(b, res)
		if err != nil {
			t.Fatal(err)
		}
		return rel
	}
	full := errOf(ModelOptions{})
	noSerial := errOf(ModelOptions{NoSerialMisses: true})
	if math.Abs(full) > 0.4 {
		t.Errorf("full model error %.1f%% too large on memory workload", full*100)
	}
	if math.Abs(noSerial) < math.Abs(full) {
		t.Errorf("serial-miss refinement hurt accuracy: %.1f%% vs %.1f%%", noSerial*100, full*100)
	}
}

func TestMachineLatencyExpectedValue(t *testing.T) {
	cfg := uarch.Baseline()
	lat := MachineLatency(cfg, 0.5)
	got := lat[isa.Load]
	want := float64(cfg.Mem.Lat.L1) + 0.5*float64(cfg.Mem.Lat.L2-cfg.Mem.Lat.L1)
	if got != want {
		t.Errorf("load latency = %v, want %v", got, want)
	}
	if lat[isa.IntMul] != float64(cfg.FU.IntMul.Latency) {
		t.Errorf("mul latency = %v", lat[isa.IntMul])
	}
}

// TestBuildModelRejectsBadConfig: a model set, the one builder of the
// analytic model, refuses an invalid base configuration up front.
func TestBuildModelRejectsBadConfig(t *testing.T) {
	cfg := uarch.Baseline()
	soa := trace.Pack(&trace.Trace{})
	ov, err := overlay.Compute(soa, cfg.Pred, cfg.Mem)
	if err != nil {
		t.Fatal(err)
	}
	cfg.ROBSize = 0
	if _, err := NewModelSet(soa, ov, cfg, 128, 0, 0); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestWindowLadderEndsAtROB(t *testing.T) {
	for _, rob := range []int{17, 64, 128, 200} {
		ws := windowLadder(rob)
		if ws[len(ws)-1] != rob {
			t.Errorf("ladder for %d ends at %d", rob, ws[len(ws)-1])
		}
		for i := 1; i < len(ws); i++ {
			if ws[i] <= ws[i-1] {
				t.Errorf("ladder for %d not ascending: %v", rob, ws)
			}
		}
	}
}

// TestFunctionalProfileWarmup checks that the model's miss-event profile
// leaves the warmup out of every count and event.
func TestFunctionalProfileWarmup(t *testing.T) {
	wc := testWorkload()
	cfg := uarch.Baseline()
	soa, err := trace.PackReader(workload.MustNew(wc, 100_000))
	if err != nil {
		t.Fatal(err)
	}
	ov, err := overlay.Compute(soa, cfg.Pred, cfg.Mem)
	if err != nil {
		t.Fatal(err)
	}
	full, err := overlayProfile(soa, ov, cfg, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := overlayProfile(soa, ov, cfg, 50_000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Insts != full.Insts {
		t.Errorf("warmup changed Insts: %d vs %d", warm.Insts, full.Insts)
	}
	if warm.Warmup != 50_000 {
		t.Errorf("warmup not recorded: %d", warm.Warmup)
	}
	if warm.Mispredicts >= full.Mispredicts {
		t.Errorf("warmup did not reduce counted mispredicts: %d vs %d", warm.Mispredicts, full.Mispredicts)
	}
	for _, ev := range warm.Events {
		if ev.Index < 50_000 {
			t.Fatalf("pre-warmup event survived: %+v", ev)
		}
	}
	// Post-warmup miss rates must be at or below overall (cold start gone).
	fullRate := float64(full.LongDMisses) / float64(full.Insts)
	warmRate := float64(warm.LongDMisses) / float64(warm.Insts-warm.Warmup)
	if warmRate > fullRate*1.5 {
		t.Errorf("post-warmup long-miss rate %.4f suspiciously above overall %.4f", warmRate, fullRate)
	}
}
