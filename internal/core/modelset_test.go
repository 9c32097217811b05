package core

import (
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"

	"intervalsim/internal/ilp"
	"intervalsim/internal/overlay"
	"intervalsim/internal/trace"
	"intervalsim/internal/uarch"
	"intervalsim/internal/vpred"
	"intervalsim/internal/workload"
)

func modelSetPoint(width, depth, rob int) uarch.Config {
	cfg := uarch.Baseline()
	cfg.Name = "set-point"
	cfg.FetchWidth = width
	cfg.DispatchWidth = width
	cfg.IssueWidth = width
	cfg.CommitWidth = width
	cfg.FrontendDepth = depth
	cfg.ROBSize = rob
	cfg.IQSize = rob / 2
	return cfg
}

// buildModel is the reference model build: the machine-latency
// characteristic and the branch-resolution characteristic at cfg's dispatch
// width, each profiled over cfg's own window ladder and nothing else, and
// the model that reads the machine-latency one where the model's
// inherent-ILP cap reads it, at the ROB size. It returns the
// machine-latency characteristic too. shortRatio is the program's
// short-miss ratio from a functional profile.
func buildModel(soa *trace.SoA, cfg uarch.Config, shortRatio float64, maxInsts int) (*Model, ilp.Characteristic, error) {
	if err := cfg.Validate(); err != nil {
		return nil, ilp.Characteristic{}, err
	}
	windows := windowLadder(cfg.ROBSize)
	lat := MachineLatency(cfg, shortRatio)
	klat, err := ilp.Profile(soa, windows, lat, maxInsts)
	if err != nil {
		return nil, ilp.Characteristic{}, err
	}
	kres, err := ilp.ProfileResolution(soa, windows, lat, cfg.DispatchWidth, maxInsts, resolutionSample)
	if err != nil {
		return nil, ilp.Characteristic{}, err
	}
	return &Model{Cfg: cfg, KROB: klat.EvalInterp(cfg.ROBSize), KRes: kres}, klat, nil
}

// dedicatedModel builds the model of cfg and its miss-event profile over
// soa with a model set dedicated to cfg.
func dedicatedModel(t *testing.T, soa *trace.SoA, cfg uarch.Config, warmup uint64) (*Model, *Profile) {
	t.Helper()
	ov, err := overlay.ComputeSpec(soa, cfg.Pred, cfg.Mem, cfg.VPred)
	if err != nil {
		t.Fatal(err)
	}
	set, err := NewModelSet(soa, ov, cfg, cfg.ROBSize, warmup, 0)
	if err != nil {
		t.Fatal(err)
	}
	m, prof, err := set.For(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m, prof
}

// TestModelSetMatchesBuildModel is the sharing-soundness gate: what a
// prediction reads of a model composed from a ModelSet's measurements must
// equal, bit for bit, the reference build dedicated to that one point —
// KROB the reference ladder's K at the ROB size, KRes the reference
// resolution characteristic — and the set's model must predict the same
// cycle stack from the set's profile as the reference does from the live
// functional profile. One set, whose up-front ladder is that of ROB 128,
// answers ROB sizes below, between, at and above its ladder nodes, in an
// order that makes later sizes reuse and extend earlier measurements.
func TestModelSetMatchesBuildModel(t *testing.T) {
	const insts, warmup = 60_000, 5_000
	for _, name := range []string{"crafty", "mcf"} {
		wc, _ := workload.SuiteConfig(name)
		tr, err := trace.ReadAll(workload.MustNew(wc, insts))
		if err != nil {
			t.Fatal(err)
		}
		soa := trace.Pack(tr)
		base := uarch.Baseline()
		ov, err := overlay.Compute(soa, base.Pred, base.Mem)
		if err != nil {
			t.Fatal(err)
		}
		set, err := NewModelSet(soa, ov, base, 128, warmup, insts)
		if err != nil {
			t.Fatal(err)
		}
		for i, rob := range []int{256, 64, 96, 128, 200, 32, 512, 3} {
			for _, width := range []int{2, 4, 8} {
				cfg := modelSetPoint(width, 3+4*(i%3), rob)
				shared, prof, err := set.For(cfg)
				if err != nil {
					t.Fatalf("%s: For(w%d r%d): %v", name, width, rob, err)
				}
				dedicated, err := FunctionalProfile(tr.Reader(), cfg, warmup, 0)
				if err != nil {
					t.Fatal(err)
				}
				direct, klat, err := buildModel(soa, cfg, dedicated.ShortMissRatio(), insts)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := shared.KROB, klat.K[len(klat.K)-1]; math.Float64bits(got) != math.Float64bits(want) ||
					math.Float64bits(direct.KROB) != math.Float64bits(want) {
					t.Errorf("%s w%d r%d: set KROB %v, reference K(ROB) %v, read by the reference model as %v",
						name, width, rob, got, want, direct.KROB)
				}
				if !reflect.DeepEqual(shared.KRes, direct.KRes) {
					t.Errorf("%s w%d r%d: set KRes %+v, reference %+v", name, width, rob, shared.KRes, direct.KRes)
				}
				want, err := direct.PredictCPI(dedicated)
				if err != nil {
					t.Fatal(err)
				}
				got, err := shared.PredictCPI(prof)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Errorf("%s w%d r%d: set prediction %+v, reference %+v", name, width, rob, got, want)
				}
			}
		}
	}
}

// TestModelSetMeasuresKAtROBSizes pins what a set measures of the
// machine-latency characteristic: one ROB-sized window per ROB size asked
// for, none of the ladder below it and none of maxROB's, however many
// widths ask for each size.
func TestModelSetMeasuresKAtROBSizes(t *testing.T) {
	const insts = 20_000
	wc, _ := workload.SuiteConfig("gzip")
	soa, err := trace.PackReader(workload.MustNew(wc, insts))
	if err != nil {
		t.Fatal(err)
	}
	base := uarch.Baseline()
	ov, err := overlay.Compute(soa, base.Pred, base.Mem)
	if err != nil {
		t.Fatal(err)
	}
	set, err := NewModelSet(soa, ov, base, 512, 2_000, insts)
	if err != nil {
		t.Fatal(err)
	}
	for _, width := range []int{2, 4, 8} {
		for _, rob := range []int{64, 128, 256} {
			if _, _, err := set.For(modelSetPoint(width, 5, rob)); err != nil {
				t.Fatal(err)
			}
		}
	}
	var measured []int
	for w := range set.krob {
		measured = append(measured, w)
	}
	slices.Sort(measured)
	if want := []int{64, 128, 256}; !slices.Equal(measured, want) {
		t.Errorf("set measured the machine-latency K at windows %v, want %v", measured, want)
	}
}

// fieldRole is how the analytic model treats one uarch.Config field.
type fieldRole int

const (
	// modelled: a prediction reads the field of the configuration it is
	// for.
	modelled fieldRole = iota + 1
	// sharedBySet: the field is fixed for a model set, and For refuses a
	// configuration whose field differs from the set's.
	sharedBySet
	// outsideModel: no prediction reads the field, so the model answers the
	// same whatever its value.
	outsideModel
)

// configFields names the role of every uarch.Config field in the analytic
// model.
var configFields = map[string]fieldRole{
	"Name":          outsideModel, // a label
	"FetchWidth":    modelled,     // the fetch-break cap on steady dispatch
	"DispatchWidth": modelled,     // steady dispatch and the resolution characteristic
	"IssueWidth":    outsideModel, // issue bandwidth bounds only the simulator
	"CommitWidth":   outsideModel, // so does retire bandwidth
	"FrontendDepth": modelled,     // the refill after a flush
	"ROBSize":       modelled,     // window occupancy, KROB and the long-miss overlap credit
	"IQSize":        outsideModel, // the scheduler's window bounds only the simulator
	"FU":            sharedBySet,  // the latencies; counts and pipelining are outside the model
	"Pred":          sharedBySet,  // through the overlay's fingerprint
	"Mem":           sharedBySet,  // the geometry through the overlay's fingerprint, and the latencies
	"VPred":         sharedBySet,  // through the overlay's fingerprint
	"FetchRate":     modelled,     // the throttled refill
}

// TestConfigFieldsHaveRoles: every uarch.Config field has a role in the
// model, so a field added to the machine is either modelled, checked by
// For, or named as outside the model, and every entry names a field.
func TestConfigFieldsHaveRoles(t *testing.T) {
	typ := reflect.TypeOf(uarch.Config{})
	for i := range typ.NumField() {
		if name := typ.Field(i).Name; configFields[name] == 0 {
			t.Errorf("uarch.Config.%s has no role in configFields", name)
		}
	}
	for name := range configFields {
		if _, ok := typ.FieldByName(name); !ok {
			t.Errorf("configFields names %s, which uarch.Config lacks", name)
		}
	}
}

// TestModelSetProfilesMatchOverlayProfile pins the per-ROB derivation: the
// profile a set returns for each ROB size, derived from its one unbounded
// walk, must equal a walk with that reorder window (DeepEqual, events and
// all), over the suite, with and without a value predictor, over the whole
// trace and inside a warmup/instruction-limit window, at sizes asked in an
// order that reuses the walk and clears serial marks at some of them.
func TestModelSetProfilesMatchOverlayProfile(t *testing.T) {
	const insts = 40_000
	cleared := 0
	for _, wc := range workload.Suite() {
		soa, err := trace.PackReader(workload.MustNew(wc, insts))
		if err != nil {
			t.Fatal(err)
		}
		for _, spec := range []bool{false, true} {
			base := uarch.Baseline()
			if spec {
				vp, _ := vpred.Preset("stride")
				vp.Stream = wc.ValueStream()
				base.VPred = &vp
			}
			ov, err := overlay.ComputeSpec(soa, base.Pred, base.Mem, base.VPred)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range []struct {
				warmup   uint64
				maxInsts int
			}{{0, 0}, {5_000, 33_000}} {
				set, err := NewModelSet(soa, ov, base, 128, w.warmup, w.maxInsts)
				if err != nil {
					t.Fatal(err)
				}
				for _, rob := range []int{256, 64, 96, 128, 200, 32, 512, 3} {
					cfg := modelSetPoint(4, 7, rob)
					cfg.VPred = base.VPred
					_, prof, err := set.For(cfg)
					if err != nil {
						t.Fatal(err)
					}
					want, err := overlayProfile(soa, ov, cfg, w.warmup, uint64(w.maxInsts))
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(prof, want) {
						t.Errorf("%s vpred=%v warmup %d max %d r%d: set profile differs from a walk with that window",
							wc.Name, spec, w.warmup, w.maxInsts, rob)
					}
					if prof.LongSerial < set.walk.LongSerial {
						cleared++
					}
				}
			}
		}
	}
	if cleared == 0 {
		t.Error("no ROB size cleared a serial mark: the derivation went unexercised")
	}
}

// TestModelSetBoundsProfiles: a set keeps at most maxProfiles miss-event
// profiles however many ROB sizes it is asked for, and answers the sizes it
// did not keep exactly as a set dedicated to them.
func TestModelSetBoundsProfiles(t *testing.T) {
	const insts = 20_000
	wc, _ := workload.SuiteConfig("mcf")
	soa, err := trace.PackReader(workload.MustNew(wc, insts))
	if err != nil {
		t.Fatal(err)
	}
	base := uarch.Baseline()
	ov, err := overlay.Compute(soa, base.Pred, base.Mem)
	if err != nil {
		t.Fatal(err)
	}
	set, err := NewModelSet(soa, ov, base, 128, 2_000, insts)
	if err != nil {
		t.Fatal(err)
	}
	for rob := 40; rob < 40+2*maxProfiles; rob++ {
		cfg := modelSetPoint(4, 5, rob)
		m, prof, err := set.For(cfg)
		if err != nil {
			t.Fatal(err)
		}
		wantM, wantProf := dedicatedModel(t, soa, cfg, 2_000)
		if !reflect.DeepEqual(m, wantM) || !reflect.DeepEqual(prof, wantProf) {
			t.Errorf("ROB %d: set answer differs from a dedicated set's", rob)
		}
	}
	if n := len(set.prof); n != maxProfiles {
		t.Errorf("set keeps %d profiles, want %d", n, maxProfiles)
	}
}

// TestModelSetRejectsOutsideFamily pins the contract checks: an invalid
// configuration, and one that would silently mis-share a characteristic,
// must be refused.
func TestModelSetRejectsOutsideFamily(t *testing.T) {
	const insts = 5_000
	wc, _ := workload.SuiteConfig("gzip")
	tr, err := trace.ReadAll(workload.MustNew(wc, insts))
	if err != nil {
		t.Fatal(err)
	}
	soa := trace.Pack(tr)
	base := uarch.Baseline()
	ov, err := overlay.Compute(soa, base.Pred, base.Mem)
	if err != nil {
		t.Fatal(err)
	}
	set, err := NewModelSet(soa, ov, base, 256, 0, insts)
	if err != nil {
		t.Fatal(err)
	}

	pred := modelSetPoint(4, 5, 128)
	pred.Pred.Kind = "bimodal"
	if _, _, err := set.For(pred); err == nil {
		t.Error("different predictor accepted")
	}
	lat := modelSetPoint(4, 5, 128)
	lat.Mem.Lat.Mem = 500
	if _, _, err := set.For(lat); err == nil {
		t.Error("different memory latency accepted")
	}
	fu := modelSetPoint(4, 5, 128)
	fu.FU = fu.FU.Scale(2)
	if _, _, err := set.For(fu); err == nil {
		t.Error("scaled FU latencies accepted")
	}
	invalid := modelSetPoint(4, 5, 128)
	invalid.ROBSize = 0
	if _, _, err := set.For(invalid); err == nil {
		t.Error("invalid configuration accepted")
	}
	counts := modelSetPoint(8, 5, 128) // width scales counts, not latencies
	counts.FU.MemPort.Count = 4
	if _, _, err := set.For(counts); err != nil {
		t.Errorf("count-only FU change rejected: %v", err)
	}

	ovMismatch, err := overlay.Compute(soa, pred.Pred, pred.Mem)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewModelSet(soa, ovMismatch, base, 256, 0, insts); err == nil {
		t.Error("NewModelSet accepted an overlay for a different predictor")
	}
	if _, err := NewModelSet(trace.Pack(tr), ov, base, 256, 0, insts); err == nil {
		t.Error("NewModelSet accepted an overlay of a different trace")
	}
}

// TestModelSetConcurrentFor: one set shared by many workers — as the
// trace cache shares it across requests — answers every member exactly as
// serial calls on a fresh set do, with its lazily built characteristics and
// profiles raced for from the first call on, ROB sizes off and above the
// up-front ladder included.
func TestModelSetConcurrentFor(t *testing.T) {
	const insts = 30_000
	wc, _ := workload.SuiteConfig("twolf")
	soa, err := trace.PackReader(workload.MustNew(wc, insts))
	if err != nil {
		t.Fatal(err)
	}
	base := uarch.Baseline()
	ov, err := overlay.Compute(soa, base.Pred, base.Mem)
	if err != nil {
		t.Fatal(err)
	}
	var points []uarch.Config
	for _, width := range []int{2, 4, 8} {
		for _, rob := range []int{32, 96, 128, 256, 384} {
			points = append(points, modelSetPoint(width, 5, rob))
		}
	}
	predict := func(set *ModelSet, cfg uarch.Config) (CPIBreakdown, error) {
		m, prof, err := set.For(cfg)
		if err != nil {
			return CPIBreakdown{}, err
		}
		return m.PredictCPI(prof)
	}

	serial, err := NewModelSet(soa, ov, base, 256, 2_000, insts)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]CPIBreakdown, len(points))
	for i, cfg := range points {
		if want[i], err = predict(serial, cfg); err != nil {
			t.Fatal(err)
		}
	}

	shared, err := NewModelSet(soa, ov, base, 256, 2_000, insts)
	if err != nil {
		t.Fatal(err)
	}
	const workers, rounds = 8, 3
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for k := range points {
					i := (g*5 + k + r) % len(points) // each worker starts elsewhere
					got, err := predict(shared, points[i])
					if err != nil {
						t.Error(err)
						return
					}
					if got != want[i] {
						t.Errorf("worker %d: %s w%d r%d: concurrent %+v, serial %+v",
							g, points[i].Name, points[i].DispatchWidth, points[i].ROBSize, got, want[i])
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestAvgMispredictPenaltyMatchesIntervalMean pins CPIBreakdown's mean
// penalty to its reference definition: the model's penalty averaged over
// every non-final branch-mispredict interval of the profile. PredictCPI
// charges exactly those penalties to Bpred, in the same order, so the two
// must agree bit for bit, over the suite, with and without value
// speculation and fetch throttling, at the grid's corners.
func TestAvgMispredictPenaltyMatchesIntervalMean(t *testing.T) {
	if got := (CPIBreakdown{}).AvgMispredictPenalty(); got != 0 {
		t.Fatalf("empty breakdown mean penalty = %v, want 0", got)
	}
	const insts, warmup = 40_000, 5_000
	for _, wc := range workload.Suite() {
		soa, err := trace.PackReader(workload.MustNew(wc, insts))
		if err != nil {
			t.Fatal(err)
		}
		for _, spec := range []bool{false, true} {
			base := uarch.Baseline()
			if spec {
				vp, _ := vpred.Preset("stride")
				vp.Stream = wc.ValueStream()
				base.VPred = &vp
				base.FetchRate = 0.5
			}
			ov, err := overlay.ComputeSpec(soa, base.Pred, base.Mem, base.VPred)
			if err != nil {
				t.Fatal(err)
			}
			set, err := NewModelSet(soa, ov, base, 256, warmup, insts)
			if err != nil {
				t.Fatal(err)
			}
			for _, width := range []int{2, 8} {
				for _, depth := range []int{3, 11} {
					for _, rob := range []int{64, 256} {
						cfg := modelSetPoint(width, depth, rob)
						cfg.VPred, cfg.FetchRate = base.VPred, base.FetchRate
						m, prof, err := set.For(cfg)
						if err != nil {
							t.Fatal(err)
						}
						pred, err := m.PredictCPI(prof)
						if err != nil {
							t.Fatal(err)
						}
						ivs, err := Segment(prof.Events, prof.Insts)
						if err != nil {
							t.Fatal(err)
						}
						var pen, n float64
						for _, iv := range ivs {
							if !iv.Final && iv.Kind == uarch.EvBranchMispredict {
								pen += m.MispredictPenalty(iv.Len() - 1)
								n++
							}
						}
						if n == 0 {
							t.Fatalf("%s spec=%v: no mispredictions to average", wc.Name, spec)
						}
						pen /= n
						if got := pred.AvgMispredictPenalty(); got != pen || float64(pred.Mispredicts) != n {
							t.Errorf("%s spec=%v w%d d%d r%d: AvgMispredictPenalty %v over %d, reference %v over %v",
								wc.Name, spec, width, depth, rob, got, pred.Mispredicts, pen, n)
						}
					}
				}
			}
		}
	}
}
