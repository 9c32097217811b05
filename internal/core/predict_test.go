package core

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"testing"

	"intervalsim/internal/cache"
	"intervalsim/internal/ilp"
	"intervalsim/internal/overlay"
	"intervalsim/internal/trace"
	"intervalsim/internal/uarch"
	"intervalsim/internal/vpred"
	"intervalsim/internal/workload"
)

// The reference model evaluation: segment a sorted copy of the events into
// intervals, map every serial long miss to its parent, and hold each
// long-miss cluster in a map. PredictCPI's one ordered pass must equal it
// exactly.

// refSegment is the reference segmentation: the events sorted by index and
// then by falling priority, stably, so that of equal-priority events on one
// instruction the first in the stream is kept, as boundary keeps it.
func refSegment(events []uarch.MissEvent, totalInsts uint64) ([]Interval, error) {
	evs := append([]uarch.MissEvent(nil), events...)
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].Index != evs[j].Index {
			return evs[i].Index < evs[j].Index
		}
		return eventPriority(evs[i].Kind) > eventPriority(evs[j].Kind)
	})
	var out []Interval
	var start uint64
	for i, ev := range evs {
		if ev.Index >= totalInsts {
			return nil, fmt.Errorf("%w: event index %d beyond trace length %d", ErrBadInput, ev.Index, totalInsts)
		}
		if i > 0 && ev.Index == evs[i-1].Index {
			continue // collapsed boundary
		}
		out = append(out, Interval{Start: start, End: ev.Index + 1, Kind: ev.Kind, Level: ev.Level})
		start = ev.Index + 1
	}
	if start < totalInsts {
		out = append(out, Interval{Start: start, End: totalInsts, Final: true})
	}
	return out, nil
}

// refPredictCPI is the reference form of PredictCPI.
func refPredictCPI(m *Model, p *Profile) (CPIBreakdown, error) {
	intervals, err := refSegment(p.Events, p.Insts)
	if err != nil {
		return CPIBreakdown{}, err
	}
	b := CPIBreakdown{Insts: p.Insts - p.Warmup}
	dEff := m.effectiveDispatch(p)
	b.Base = float64(b.Insts) / dEff

	lat := m.Cfg.Mem.Lat
	longCredit := float64(m.Cfg.ROBSize) / dEff
	longCost := float64(lat.Mem) - longCredit
	if longCost < float64(lat.Mem)/4 {
		longCost = float64(lat.Mem) / 4
	}
	if m.Opts.NoOverlapCredit {
		longCost = float64(lat.Mem)
	}
	parent := make(map[uint64]uint64, p.LongSerial)
	if !m.Opts.NoSerialMisses {
		for _, ev := range p.Events {
			if ev.Kind == uarch.EvLongDMiss && ev.Serial {
				parent[ev.Index] = ev.Parent
			}
		}
	}
	var clusterStart uint64
	var clusterDepths map[uint64]float64
	var clusterMax float64
	flushCluster := func() {
		if clusterDepths != nil {
			b.LongData += clusterMax*float64(lat.Mem) - (float64(lat.Mem) - longCost)
			clusterDepths = nil
		}
	}
	for _, iv := range intervals {
		if iv.Final {
			continue
		}
		evIdx := iv.End - 1
		switch iv.Kind {
		case uarch.EvBranchMispredict:
			b.Bpred += m.MispredictPenalty(iv.Len() - 1)
			b.Mispredicts++
		case uarch.EvValueMisspec:
			b.VMisspec += m.MispredictPenalty(iv.Len() - 1)
		case uarch.EvICacheMiss:
			if iv.Level == cache.LongMiss {
				b.ICache += float64(lat.Mem)
			} else {
				b.ICache += float64(lat.L2)
			}
		case uarch.EvLongDMiss:
			if clusterDepths == nil || evIdx-clusterStart >= uint64(m.Cfg.ROBSize) {
				flushCluster()
				clusterStart = evIdx
				clusterDepths = make(map[uint64]float64, 8)
				clusterMax = 0
			}
			depth := 1.0
			if par, ok := parent[evIdx]; ok {
				if pd, in := clusterDepths[par]; in {
					depth = pd + 1
				}
			}
			clusterDepths[evIdx] = depth
			if depth > clusterMax {
				clusterMax = depth
			}
		}
	}
	flushCluster()
	return b, nil
}

// modelOptionSets are the full model and each refinement switched off
// alone.
var modelOptionSets = []ModelOptions{
	{},
	{NoSerialMisses: true},
	{NoOverlapCredit: true},
	{NoFetchCap: true},
	{NoILPCap: true},
}

// sameError reports whether two errors are both nil, or both wrap
// ErrBadInput with the same text.
func sameError(a, b error) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Error() == b.Error() && errors.Is(a, ErrBadInput) && errors.Is(b, ErrBadInput)
}

// checkPredict requires PredictCPI to equal the reference on m and p:
// every CPIBreakdown field, and the error.
func checkPredict(t *testing.T, name string, m *Model, p *Profile) {
	t.Helper()
	got, err := m.PredictCPI(p)
	want, wantErr := refPredictCPI(m, p)
	if got != want || !sameError(err, wantErr) {
		t.Errorf("%s: PredictCPI %+v (err %v), reference %+v (err %v)", name, got, err, want, wantErr)
	}
}

// handModel is a model of a width-4, depth-5 machine with rob entries over
// hand-made characteristics.
func handModel(rob int) *Model {
	ladder := windowLadder(rob)
	kres := make([]float64, len(ladder))
	for i, w := range ladder {
		kres[i] = math.Min(math.Sqrt(float64(w))+1, 6)
	}
	return &Model{Cfg: modelSetPoint(4, 5, rob), KROB: math.Sqrt(float64(rob)) + 1, KRes: ilp.NewCharacteristic(ladder, kres)}
}

// handProfiles are profiles no overlay walk produces: events out of index
// order, several events on one instruction in every kind order, serial
// misses whose parent left the cluster or collapsed under another event,
// and events at and past the end of the trace.
func handProfiles() map[string]*Profile {
	mis := func(kind uarch.EventKind, idx uint64) uarch.MissEvent {
		return uarch.MissEvent{Kind: kind, Index: idx, Level: cache.LongMiss}
	}
	serial := func(idx, parent uint64) uarch.MissEvent {
		return uarch.MissEvent{Kind: uarch.EvLongDMiss, Index: idx, Level: cache.LongMiss, Serial: true, Parent: parent}
	}
	prof := func(insts uint64, evs ...uarch.MissEvent) *Profile {
		return &Profile{Insts: insts, Warmup: 10, TakenXfers: insts / 9, Events: evs}
	}
	out := map[string]*Profile{
		"out of order": prof(400,
			mis(uarch.EvLongDMiss, 50), mis(uarch.EvBranchMispredict, 10), serial(60, 50),
			uarch.MissEvent{Kind: uarch.EvICacheMiss, Index: 30, Level: cache.ShortMiss},
			mis(uarch.EvValueMisspec, 300), serial(55, 50), mis(uarch.EvBranchMispredict, 200)),
		// ROB 32: 45 opens a new cluster, so 50's parent 20 is gone.
		"parent left the cluster": prof(400,
			mis(uarch.EvLongDMiss, 10), serial(20, 10), mis(uarch.EvLongDMiss, 45), serial(50, 20), serial(52, 50)),
		// The miss at 10 is collapsed under the I-cache miss there.
		"parent collapsed": prof(400,
			mis(uarch.EvICacheMiss, 10), serial(10, 4), mis(uarch.EvLongDMiss, 12), serial(15, 10), serial(17, 12)),
		"two serial misses on one instruction": prof(400,
			mis(uarch.EvLongDMiss, 5), mis(uarch.EvLongDMiss, 7), serial(9, 5), serial(9, 7), mis(uarch.EvLongDMiss, 9), serial(11, 9)),
		"parent at or after its child": prof(400,
			mis(uarch.EvLongDMiss, 5), serial(8, 8), serial(9, 30), serial(30, 9)),
		"event at the last instruction": prof(100, mis(uarch.EvBranchMispredict, 20), mis(uarch.EvBranchMispredict, 99)),
		"event at the trace length":     prof(100, mis(uarch.EvBranchMispredict, 20), mis(uarch.EvBranchMispredict, 100)),
		"events past the trace length":  prof(100, mis(uarch.EvLongDMiss, 150), mis(uarch.EvBranchMispredict, 20), mis(uarch.EvICacheMiss, 120)),
		"no events":                     prof(100),
	}
	// Every order of the four kinds, and each prefix of it, on instruction
	// 20, after a long miss that 20's chains to and before one chaining to
	// 20.
	kinds := []uarch.EventKind{uarch.EvBranchMispredict, uarch.EvICacheMiss, uarch.EvLongDMiss, uarch.EvValueMisspec}
	var permute func(k int)
	permute = func(k int) {
		if k == len(kinds) {
			evs := []uarch.MissEvent{mis(uarch.EvLongDMiss, 3)}
			for j, kind := range kinds {
				ev := mis(kind, 20)
				ev.Level = cache.Level(1 + j%2)
				if kind == uarch.EvLongDMiss {
					ev.Serial, ev.Parent = true, 3
				}
				evs = append(evs, ev)
				out[fmt.Sprintf("one instruction %v", kinds[:j+1])] = prof(100, append(slices.Clone(evs), serial(25, 20))...)
			}
			return
		}
		for i := k; i < len(kinds); i++ {
			kinds[k], kinds[i] = kinds[i], kinds[k]
			permute(k + 1)
			kinds[k], kinds[i] = kinds[i], kinds[k]
		}
	}
	permute(0)
	return out
}

// TestPredictCPIMatchesReference is the differential gate of the model's
// one ordered pass: over the suite, plain, with a stride value predictor
// and at fetch rate 0.5, at every width, depth and ROB size of the grid
// and each model refinement switched off alone, and over hand-built
// profiles no overlay produces, PredictCPI must return the reference's
// CPIBreakdown (==) and error.
func TestPredictCPIMatchesReference(t *testing.T) {
	for name, p := range handProfiles() {
		for _, rob := range []int{3, 32, 512} {
			for _, opts := range modelOptionSets {
				m := handModel(rob)
				m.Opts = opts
				checkPredict(t, fmt.Sprintf("%s r%d %+v", name, rob, opts), m, p)
			}
		}
		if p.Insts == 100 { // Segment names the same bad event
			_, err := Segment(p.Events, p.Insts)
			if _, predErr := handModel(32).PredictCPI(p); !sameError(predErr, err) {
				t.Errorf("%s: PredictCPI error %v, Segment error %v", name, predErr, err)
			}
		}
	}

	const insts, warmup = 40_000, 5_000
	for _, wc := range workload.Suite() {
		soa, err := trace.PackReader(workload.MustNew(wc, insts))
		if err != nil {
			t.Fatal(err)
		}
		for _, spec := range []string{"plain", "vpred", "fetchrate"} {
			base := uarch.Baseline()
			switch spec {
			case "vpred":
				vp, _ := vpred.Preset("stride")
				vp.Stream = wc.ValueStream()
				base.VPred = &vp
			case "fetchrate":
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
			for _, rob := range []int{3, 32, 64, 96, 128, 200, 256, 512} {
				for _, width := range []int{2, 4, 8} {
					for _, depth := range []int{3, 7, 11} {
						cfg := modelSetPoint(width, depth, rob)
						cfg.VPred, cfg.FetchRate = base.VPred, base.FetchRate
						m, prof, err := set.For(cfg)
						if err != nil {
							t.Fatal(err)
						}
						for _, opts := range modelOptionSets {
							m.Opts = opts
							checkPredict(t, fmt.Sprintf("%s %s w%d d%d r%d %+v", wc.Name, spec, width, depth, rob, opts), m, prof)
						}
					}
				}
			}
		}
	}
}

// FuzzPredictCPI decodes a model and up to 512 miss events — every kind
// and level, serial flags and parents anywhere, indices out of order, on
// one instruction and past the trace — and requires PredictCPI to equal
// the reference, and Segment its reference.
func FuzzPredictCPI(f *testing.F) {
	f.Add([]byte{})
	seed := []byte{0, 31, 3, 5, 2, 40, 100, 2, 200, 0, 3, 8, 16, 32, 64, 99, 7, 1, 40, 0, 0}
	for i := 0; i < 64; i++ {
		seed = append(seed, byte(i*37), byte(i%5), byte(i%9))
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		u16 := func() int { return int(next())<<8 | int(next()) }
		rob := 1 + u16()%4096
		width := 1 + int(next()%8)
		cfg := modelSetPoint(width, 1+int(next()%32), rob)
		if r := next(); r%2 == 1 {
			cfg.FetchRate = float64(r) / 256
		}
		lat := &cfg.Mem.Lat
		lat.L2 = lat.L1 + int(next())
		lat.Mem = lat.L2 + 4*int(next())
		opts := next()
		m := &Model{Cfg: cfg, KROB: float64(next()) / 4, Opts: ModelOptions{
			NoSerialMisses: opts&1 != 0, NoOverlapCredit: opts&2 != 0, NoFetchCap: opts&4 != 0,
			NoILPCap: opts&8 != 0,
		}}
		ladder := windowLadder(max(rob, 2))
		kres := make([]float64, len(ladder))
		for i := range ladder {
			kres[i] = float64(next()) / 4
		}
		m.KRes = ilp.NewCharacteristic(ladder, kres)

		// At least one counted instruction: with none, and fetch breaks,
		// Base is 0/0, a NaN no == holds for.
		p := &Profile{Insts: 1 + uint64(u16())}
		p.Warmup, p.TakenXfers = uint64(next())%p.Insts, uint64(next())
		var idx uint64
		for len(data) > 0 && len(p.Events) < 512 {
			b, step, back := next(), uint64(next()%16), uint64(next())
			switch {
			case b&0x80 != 0 && back <= idx: // out of order
				idx -= back
			case b&0x40 != 0: // far ahead, past the trace end as often as not
				idx += 64 * step
			default: // step 0 stays on the instruction
				idx += step
			}
			ev := uarch.MissEvent{Kind: uarch.EventKind(b % 4), Index: idx, Level: cache.Level(b >> 2 % 4)}
			if b&0x10 != 0 {
				ev.Serial, ev.Parent = true, idx-min(idx, back%64)
				if b&0x20 != 0 {
					ev.Parent = back // anywhere, even ahead of the miss
				}
			}
			p.Events = append(p.Events, ev)
		}
		checkPredict(t, "fuzzed", m, p)
		got, err := Segment(p.Events, p.Insts)
		want, wantErr := refSegment(p.Events, p.Insts)
		if !reflect.DeepEqual(got, want) || !sameError(err, wantErr) {
			t.Errorf("Segment %+v (err %v), reference %+v (err %v)", got, err, want, wantErr)
		}
	})
}

// TestPredictCPIAllocs pins PredictCPI's allocations on an overlay profile:
// the penalty-by-occupancy table and the open cluster's slice, however long
// the profile, and no map and no sorted copy.
func TestPredictCPIAllocs(t *testing.T) {
	wc, _ := workload.SuiteConfig("mcf")
	for _, insts := range []int{50_000, 500_000} {
		soa, err := trace.PackReader(workload.MustNew(wc, insts))
		if err != nil {
			t.Fatal(err)
		}
		m, prof := dedicatedModel(t, soa, modelSetPoint(4, 7, 128), uint64(insts/10))
		if prof.LongSerial == 0 || prof.Mispredicts == 0 {
			t.Fatalf("%d instructions: profile has no serial misses or no mispredictions", insts)
		}
		if n := testing.AllocsPerRun(10, func() {
			if _, err := m.PredictCPI(prof); err != nil {
				t.Fatal(err)
			}
		}); n != 2 {
			t.Errorf("%d instructions: PredictCPI allocates %v times per call, want 2", insts, n)
		}
	}
}
