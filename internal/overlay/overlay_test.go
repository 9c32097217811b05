package overlay

import (
	"testing"

	"intervalsim/internal/bpred"
	"intervalsim/internal/cache"
	"intervalsim/internal/isa"
	"intervalsim/internal/trace"
	"intervalsim/internal/workload"
)

func testSetup(t *testing.T, insts int) (*trace.SoA, bpred.Config, cache.HierarchyConfig) {
	t.Helper()
	wc, ok := workload.SuiteConfig("gzip")
	if !ok {
		t.Fatal("unknown workload gzip")
	}
	tr, err := trace.ReadAll(workload.MustNew(wc, insts))
	if err != nil {
		t.Fatal(err)
	}
	pred := bpred.Config{Kind: "tournament", Entries: 16384, HistBits: 12, BTBEntries: 4096}
	mem := cache.HierarchyConfig{
		L1I: cache.Config{Name: "L1I", Size: 64 << 10, LineSize: 64, Ways: 2, Repl: cache.LRU},
		L1D: cache.Config{Name: "L1D", Size: 64 << 10, LineSize: 64, Ways: 4, Repl: cache.LRU},
		L2:  cache.Config{Name: "L2", Size: 1 << 20, LineSize: 64, Ways: 8, Repl: cache.LRU},
		Lat: cache.Latencies{L1: 3, L2: 12, Mem: 250},
	}
	return trace.Pack(tr), pred, mem
}

// TestComputeMatchesDirectWalk cross-checks the packed overlay against an
// independent program-order walk of the same trace through freshly built
// structures: every D class, I class, and misprediction bit must agree, and
// the aggregate counts must match the walk's predictor and cache statistics.
func TestComputeMatchesDirectWalk(t *testing.T) {
	soa, pred, mem := testSetup(t, 30_000)
	ov, err := Compute(soa, pred, mem)
	if err != nil {
		t.Fatal(err)
	}
	if ov.Len() != soa.Len() {
		t.Fatalf("overlay length %d, trace length %d", ov.Len(), soa.Len())
	}
	if ov.Trace != soa || ov.PredFP != pred.Fingerprint() || ov.MemFP != mem.Fingerprint() {
		t.Fatal("overlay provenance fields do not match inputs")
	}

	unit, err := pred.Build()
	if err != nil {
		t.Fatal(err)
	}
	h := cache.NewHierarchy(mem)
	lineMask := ^uint64(h.LineSizeI() - 1)
	var curLine uint64
	haveLine := false
	var mispredicts, iAccesses, iMisses int
	var in isa.Inst
	for i := 0; i < soa.Len(); i++ {
		soa.InstAt(i, &in)
		if line := in.PC & lineMask; !haveLine || line != curLine {
			curLine, haveLine = line, true
			lvl, _ := h.Fetch(in.PC)
			gotLvl, accessed := ov.IClass(i)
			if !accessed || gotLvl != lvl {
				t.Fatalf("record %d: I class = (%v,%v), walk says (%v,true)", i, gotLvl, accessed, lvl)
			}
			iAccesses++
			if lvl != cache.L1Hit {
				iMisses++
			}
		} else if _, accessed := ov.IClass(i); accessed {
			t.Fatalf("record %d: overlay has an I access on a straight-line instruction", i)
		}
		switch {
		case in.Class == isa.Load || in.Class == isa.Store:
			lvl, _ := h.Data(in.Addr)
			gotLvl, accessed := ov.DClass(i)
			if !accessed || gotLvl != lvl {
				t.Fatalf("record %d: D class = (%v,%v), walk says (%v,true)", i, gotLvl, accessed, lvl)
			}
		case in.Class.IsControl():
			miss := unit.Access(&in)
			if ov.Mispredicted(i) != miss {
				t.Fatalf("record %d: overlay mispredict %v, walk says %v", i, ov.Mispredicted(i), miss)
			}
			if miss {
				mispredicts++
			}
		default:
			if _, accessed := ov.DClass(i); accessed {
				t.Fatalf("record %d: D access on a non-memory instruction", i)
			}
			if ov.Mispredicted(i) {
				t.Fatalf("record %d: mispredict bit on a non-control instruction", i)
			}
		}
	}
	if mispredicts == 0 || iMisses == 0 {
		t.Fatalf("degenerate trace: %d mispredicts, %d I-misses (test proves nothing)", mispredicts, iMisses)
	}
	// The DirMiss/BTBMiss split must account for every redirect exactly once.
	var dir, btb int
	for i := 0; i < ov.Len(); i++ {
		c := ov.Code[i]
		if c&DirMiss != 0 {
			dir++
		}
		if c&BTBMiss != 0 {
			btb++
		}
		if c&AnyMiss == AnyMiss {
			t.Fatalf("record %d: both mispredict bits set", i)
		}
	}
	if uint64(dir) != unit.Stats.DirMispredict || uint64(btb) != unit.Stats.BTBMispredict {
		t.Fatalf("mispredict split %d/%d, walk stats %d/%d",
			dir, btb, unit.Stats.DirMispredict, unit.Stats.BTBMispredict)
	}
}

// TestComputeRejectsBadConfigs checks that configuration errors surface
// instead of producing a bogus overlay.
func TestComputeRejectsBadConfigs(t *testing.T) {
	soa, pred, mem := testSetup(t, 1_000)
	badPred := pred
	badPred.Kind = "oracle-of-delphi"
	if _, err := Compute(soa, badPred, mem); err == nil {
		t.Error("unknown predictor kind: want error")
	}
	badMem := mem
	badMem.L1I.LineSize = 48
	if _, err := Compute(soa, pred, badMem); err == nil {
		t.Error("invalid cache geometry: want error")
	}
}
