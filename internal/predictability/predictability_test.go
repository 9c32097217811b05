package predictability

import (
	"testing"

	"intervalsim/internal/bpred"
	"intervalsim/internal/isa"
	"intervalsim/internal/rng"
	"intervalsim/internal/trace"
)

// synthTrace builds a trace exercising one branch of each taxon:
//
//	0x1000 always taken
//	0x1008 always not-taken
//	0x1010 biased ~99% taken
//	0x1018 repeating T T N pattern (history-correlated)
//	0x1020 coin flip (H2P)
//	0x1028 always taken, target alternates every execution (BTB-limited)
//
// Branches are interleaved with ALU filler so per-KI numbers are sane.
func synthTrace(iters int) *trace.SoA {
	s := rng.New(1234)
	t := &trace.Trace{}
	add := func(in isa.Inst) {
		in.Src1, in.Src2, in.Dst = isa.NoReg, isa.NoReg, isa.NoReg
		t.Insts = append(t.Insts, in)
	}
	for i := 0; i < iters; i++ {
		add(isa.Inst{PC: 0x100, Class: isa.IntALU})
		add(isa.Inst{PC: 0x1000, Class: isa.Branch, Target: 0x9000, Taken: true})
		add(isa.Inst{PC: 0x1008, Class: isa.Branch, Target: 0x9100, Taken: false})
		add(isa.Inst{PC: 0x1010, Class: isa.Branch, Target: 0x9200, Taken: s.Bool(0.99)})
		add(isa.Inst{PC: 0x1018, Class: isa.Branch, Target: 0x9300, Taken: i%3 != 2})
		add(isa.Inst{PC: 0x1020, Class: isa.Branch, Target: 0x9400, Taken: s.Bool(0.5)})
		tgt := uint64(0x9500)
		if i%2 == 1 {
			tgt = 0x9600
		}
		add(isa.Inst{PC: 0x1028, Class: isa.Branch, Target: tgt, Taken: true})
	}
	return trace.Pack(t)
}

func TestCollectClassifiesTaxa(t *testing.T) {
	soa := synthTrace(3000)
	p, err := Collect(soa, Options{Warmup: soa.Len() / 4})
	if err != nil {
		t.Fatal(err)
	}
	want := map[uint64]Taxon{
		0x1000: TaxonAlwaysTaken,
		0x1008: TaxonAlwaysNotTaken,
		0x1010: TaxonBiased,
		0x1018: TaxonHistoryCorrelated,
		0x1020: TaxonH2P,
		0x1028: TaxonBTBLimited,
	}
	if len(p.Branches) != len(want) {
		t.Fatalf("profiled %d static branches, want %d", len(p.Branches), len(want))
	}
	for _, b := range p.Branches {
		if got := b.Taxon; got != want[b.PC] {
			t.Errorf("pc %#x classified %v, want %v (bias=%.3f refAcc=%.3f subjAcc=%.3f btbMiss=%d/%d)",
				b.PC, got, want[b.PC], b.Bias(), b.RefAccuracy(), b.SubjectAccuracy(), b.BTBMiss, b.Taken)
		}
	}
}

func TestCollectCountsAndSummaries(t *testing.T) {
	soa := synthTrace(2000)
	warm := soa.Len() / 4
	p, err := Collect(soa, Options{Warmup: warm})
	if err != nil {
		t.Fatal(err)
	}
	if p.Insts != soa.Len()-warm {
		t.Errorf("counted insts = %d, want %d", p.Insts, soa.Len()-warm)
	}
	var execs uint64
	for _, b := range p.Branches {
		execs += b.Execs
		if b.Taken > b.Execs || b.SubjectMiss > b.Execs || b.BTBMiss > b.Taken {
			t.Errorf("pc %#x inconsistent counts: %+v", b.PC, b)
		}
	}
	sums := p.Summaries()
	if len(sums) != int(taxonCount) {
		t.Fatalf("got %d summaries", len(sums))
	}
	var sumExecs, sumRedirects uint64
	for _, s := range sums {
		sumExecs += s.Execs
		sumRedirects += s.Redirects
	}
	if sumExecs != execs {
		t.Errorf("summary execs %d != branch execs %d", sumExecs, execs)
	}
	var redirects uint64
	for i := range p.Branches {
		redirects += p.Branches[i].Redirects()
	}
	if sumRedirects != redirects {
		t.Errorf("summary redirects %d != total %d", sumRedirects, redirects)
	}
	// The coin-flip branch must dominate subject direction mispredicts
	// (redirects also count BTB target thrash, which is a separate taxon).
	var h2p TaxonSummary
	for _, s := range sums {
		if s.Taxon == TaxonH2P {
			h2p = s
		}
	}
	if h2p.DirMispredicts*2 < p.TotalDirMispredicts() {
		t.Errorf("h2p dir mispredicts %d are not the majority of %d", h2p.DirMispredicts, p.TotalDirMispredicts())
	}
}

func TestTopH2PAndPenaltyAttribution(t *testing.T) {
	soa := synthTrace(1500)
	p, err := Collect(soa, Options{Warmup: 500})
	if err != nil {
		t.Fatal(err)
	}
	p.AttributePenalty(map[uint64]float64{0x1020: 123.5, 0x1000: 7, 0xdead: 99})
	top := p.TopH2P(3)
	if len(top) != 1 || top[0].PC != 0x1020 {
		t.Fatalf("TopH2P = %+v, want the single coin-flip branch", top)
	}
	if top[0].Penalty != 123.5 {
		t.Errorf("penalty not attributed: %v", top[0].Penalty)
	}
	sums := p.Summaries()
	if sums[TaxonH2P].Penalty != 123.5 || sums[TaxonAlwaysTaken].Penalty != 7 {
		t.Errorf("summary penalties wrong: %+v", sums)
	}
}

func TestCollectDeterministic(t *testing.T) {
	soa := synthTrace(1000)
	a, err := Collect(soa, Options{Warmup: 100})
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Collect(soa, Options{Warmup: 100})
	if len(a.Branches) != len(b.Branches) {
		t.Fatal("profiles differ in size")
	}
	for i := range a.Branches {
		if a.Branches[i] != b.Branches[i] {
			t.Fatalf("branch %d differs: %+v vs %+v", i, a.Branches[i], b.Branches[i])
		}
	}
}

func TestCollectBadConfig(t *testing.T) {
	soa := synthTrace(10)
	if _, err := Collect(soa, Options{Subject: bpred.Config{Kind: "bogus"}}); err == nil {
		t.Error("bad subject accepted")
	}
	if _, err := Collect(soa, Options{Ref: bpred.Config{Kind: "bogus"}}); err == nil {
		t.Error("bad ref accepted")
	}
	if _, err := Collect(soa, Options{Cheap: bpred.Config{Kind: "bogus"}}); err == nil {
		t.Error("bad cheap accepted")
	}
}

func TestBudgetCurveMonotoneStorage(t *testing.T) {
	soa := synthTrace(2000)
	budgets := []int64{2 << 10 * 8, 8 << 10 * 8, 32 << 10 * 8} // 2/8/32 KB
	pts, err := BudgetCurve(soa, "gshare", budgets, 500)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(budgets) {
		t.Fatalf("got %d points", len(pts))
	}
	for i, pt := range pts {
		if pt.StorageBits > pt.BudgetBits {
			t.Errorf("point %d: storage %d exceeds budget %d", i, pt.StorageBits, pt.BudgetBits)
		}
		if i > 0 && pt.Config.Entries < pts[i-1].Config.Entries {
			t.Errorf("entries not monotone with budget: %+v", pts)
		}
		if pt.Accuracy <= 0 || pt.Accuracy > 1 {
			t.Errorf("accuracy out of range: %+v", pt)
		}
	}
	if _, err := BudgetCurve(soa, "bogus", budgets, 0); err == nil {
		t.Error("unknown kind accepted")
	}
	if _, err := BudgetCurve(soa, "bimodal", []int64{1}, 0); err == nil {
		t.Error("impossible budget accepted")
	}
}
