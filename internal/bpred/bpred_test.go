package bpred

import (
	"strings"
	"testing"
	"testing/quick"

	"intervalsim/internal/isa"
	"intervalsim/internal/rng"
)

func TestStatic(t *testing.T) {
	at := &Static{Taken: true}
	if !at.Access(0x100, true) || at.Access(0x100, false) {
		t.Error("static-taken misbehaved")
	}
	ant := &Static{Taken: false}
	if ant.Access(0x100, true) || !ant.Access(0x100, false) {
		t.Error("static-not-taken misbehaved")
	}
	if at.Name() != "static-taken" || ant.Name() != "static-not-taken" {
		t.Error("names wrong")
	}
}

func TestPerfect(t *testing.T) {
	var p Perfect
	for i := 0; i < 100; i++ {
		if !p.Access(uint64(i*4), i%3 == 0) {
			t.Fatal("perfect predictor was wrong")
		}
	}
}

func TestCounter2Saturation(t *testing.T) {
	c := counter2(0)
	for i := 0; i < 10; i++ {
		c = c.train(true)
	}
	if c != 3 || !c.taken() {
		t.Errorf("saturated up to %d", c)
	}
	for i := 0; i < 10; i++ {
		c = c.train(false)
	}
	if c != 0 || c.taken() {
		t.Errorf("saturated down to %d", c)
	}
}

func TestBimodalLearnsBias(t *testing.T) {
	b := NewBimodal(1024)
	correct := 0
	const trials = 1000
	for i := 0; i < trials; i++ {
		if b.Access(0x400100, true) {
			correct++
		}
	}
	if correct < trials-2 {
		t.Errorf("bimodal on always-taken branch: %d/%d correct", correct, trials)
	}
}

func TestBimodalAliasesByPC(t *testing.T) {
	b := NewBimodal(16)
	// Two PCs 16*4 bytes apart collide in a 16-entry table; train one to
	// not-taken, the alias must see the trained state.
	for i := 0; i < 10; i++ {
		b.Access(0x1000, false)
	}
	if b.Access(0x1000+16*4, true) {
		t.Error("aliased entry unexpectedly predicted taken")
	}
}

// patternAccuracy trains p on a repeating direction pattern at a single PC
// and returns the accuracy over the last half of the trials.
func patternAccuracy(p Predictor, pattern []bool, trials int) float64 {
	correct := 0
	for i := 0; i < trials; i++ {
		ok := p.Access(0x400200, pattern[i%len(pattern)])
		if i >= trials/2 && ok {
			correct++
		}
	}
	return float64(correct) / float64(trials/2)
}

func TestGShareLearnsPattern(t *testing.T) {
	// T T N repeating: a bimodal predictor cannot exceed ~2/3, gshare with
	// history resolves it nearly perfectly.
	pattern := []bool{true, true, false}
	g := NewGShare(4096, 12)
	if acc := patternAccuracy(g, pattern, 3000); acc < 0.95 {
		t.Errorf("gshare accuracy on TTN pattern = %.3f, want > 0.95", acc)
	}
	b := NewBimodal(4096)
	if acc := patternAccuracy(b, pattern, 3000); acc > 0.75 {
		t.Errorf("bimodal accuracy on TTN pattern = %.3f, expected to be poor", acc)
	}
}

func TestLocalLearnsLoopExit(t *testing.T) {
	// 7 taken, 1 not-taken (an 8-iteration loop): local history of 10 bits
	// captures it.
	pattern := []bool{true, true, true, true, true, true, true, false}
	l := NewLocal(1024, 10)
	if acc := patternAccuracy(l, pattern, 4000); acc < 0.95 {
		t.Errorf("local accuracy on loop pattern = %.3f, want > 0.95", acc)
	}
}

func TestGShareHistoryClamped(t *testing.T) {
	g := NewGShare(16, 40) // history must clamp to index width (4)
	if g.histBits != 4 {
		t.Errorf("histBits = %d, want 4", g.histBits)
	}
	if !strings.Contains(g.Name(), "h4") {
		t.Errorf("name = %q", g.Name())
	}
}

func TestTournamentTracksBest(t *testing.T) {
	// Pattern TTN: gshare component should win over static-not-taken, and
	// the tournament should converge to gshare-level accuracy.
	pattern := []bool{true, true, false}
	tp := NewTournament(NewGShare(4096, 12), &Static{Taken: false}, 1024)
	if acc := patternAccuracy(tp, pattern, 4000); acc < 0.9 {
		t.Errorf("tournament accuracy = %.3f, want > 0.9", acc)
	}
	if !strings.Contains(tp.Name(), "tournament(") {
		t.Errorf("name = %q", tp.Name())
	}
}

func TestTournamentBeatsWorseComponentOnBiasedStream(t *testing.T) {
	s := rng.New(99)
	tp := NewTournament(&Static{Taken: true}, &Static{Taken: false}, 256)
	correct := 0
	const trials = 2000
	for i := 0; i < trials; i++ {
		if tp.Access(0x1000+uint64(s.Intn(64))*4, s.Bool(0.9)) {
			correct++
		}
	}
	// Should converge to the taken component: ~90% accuracy.
	if float64(correct)/trials < 0.8 {
		t.Errorf("tournament on 90%% taken stream: %d/%d", correct, trials)
	}
}

func TestBTB(t *testing.T) {
	b := NewBTB(64)
	if b.Access(0x1000, 0x2000) {
		t.Error("cold BTB hit")
	}
	if !b.Access(0x1000, 0x2000) {
		t.Error("warm BTB missed")
	}
	// Target change is a miss (wrong target) and retrains.
	if b.Access(0x1000, 0x3000) {
		t.Error("stale target reported as hit")
	}
	if !b.Access(0x1000, 0x3000) {
		t.Error("retrained target missed")
	}
	// Conflicting PC evicts.
	b.Access(0x1000+64*4, 0x4000)
	if b.Access(0x1000, 0x3000) {
		t.Error("evicted entry reported as hit")
	}
}

func TestPow2Panics(t *testing.T) {
	cases := []func(){
		func() { NewBimodal(0) },
		func() { NewBimodal(100) },
		func() { NewGShare(-4, 2) },
		func() { NewLocal(8, 0) },
		func() { NewLocal(8, 17) },
		func() { NewBTB(3) },
		func() { NewTournament(Perfect{}, Perfect{}, 5) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

// TestBuildRejectsBadGeometry: geometry the constructors panic on is an
// error from Config.Build, which validates configurations from outside the
// process (a full machine config in a service request).
func TestBuildRejectsBadGeometry(t *testing.T) {
	for _, c := range []Config{
		{Kind: "bimodal", Entries: 100},
		{Kind: "gshare", Entries: -4, HistBits: 2},
		{Kind: "tournament", Entries: 4095, HistBits: 12},
		{Kind: "local", Entries: 8, HistBits: 0},
		{Kind: "local", Entries: 8, HistBits: 17},
		{Kind: "perceptron", Entries: 64, HistBits: 65},
		{Kind: "tage", Entries: 0, HistBits: 64},
		{Kind: "2bc-gskew", Entries: 3, HistBits: 12},
		{Kind: "taken", BTBEntries: 3},
	} {
		if _, err := c.Build(); err == nil {
			t.Errorf("%+v built, want a geometry error", c)
		}
	}
	if _, err := (Config{Kind: "oracle", Entries: 3}).Build(); err == nil || !strings.Contains(err.Error(), "unknown predictor kind") {
		t.Errorf("unknown kind: err = %v, want unknown predictor kind", err)
	}
}

func TestUnitCountsAndMispredicts(t *testing.T) {
	u := &Unit{Dir: &Static{Taken: false}, BTB: NewBTB(16)}
	br := &isa.Inst{PC: 0x100, Class: isa.Branch, Src1: isa.NoReg, Src2: isa.NoReg, Dst: isa.NoReg, Target: 0x200, Taken: true}
	if !u.Access(br) {
		t.Error("static-not-taken should mispredict a taken branch")
	}
	nt := &isa.Inst{PC: 0x104, Class: isa.Branch, Src1: isa.NoReg, Src2: isa.NoReg, Dst: isa.NoReg, Target: 0x200, Taken: false}
	if u.Access(nt) {
		t.Error("static-not-taken should predict a not-taken branch")
	}
	if u.Stats.Branches != 2 || u.Stats.DirMispredict != 1 {
		t.Errorf("stats = %+v", u.Stats)
	}
}

func TestUnitBTBMiss(t *testing.T) {
	u := &Unit{Dir: &Static{Taken: true}, BTB: NewBTB(16)}
	br := &isa.Inst{PC: 0x100, Class: isa.Branch, Src1: isa.NoReg, Src2: isa.NoReg, Dst: isa.NoReg, Target: 0x200, Taken: true}
	if !u.Access(br) {
		t.Error("first taken branch should miss the cold BTB")
	}
	if u.Access(br) {
		t.Error("second access should hit BTB and direction")
	}
	if u.Stats.BTBMispredict != 1 {
		t.Errorf("stats = %+v", u.Stats)
	}
}

func TestUnitJump(t *testing.T) {
	u := &Unit{Dir: &Static{Taken: true}, BTB: NewBTB(16)}
	j := &isa.Inst{PC: 0x100, Class: isa.Jump, Src1: isa.NoReg, Src2: isa.NoReg, Dst: isa.NoReg, Target: 0x900, Taken: true}
	if !u.Access(j) {
		t.Error("cold jump should BTB-miss")
	}
	if u.Access(j) {
		t.Error("warm jump should hit")
	}
	if u.Stats.Jumps != 2 {
		t.Errorf("stats = %+v", u.Stats)
	}
}

func TestUnitPerfectNeverMispredicts(t *testing.T) {
	u := &Unit{Dir: Perfect{}, BTB: NewBTB(16)}
	s := rng.New(5)
	for i := 0; i < 500; i++ {
		in := &isa.Inst{
			PC: uint64(0x1000 + s.Intn(1024)*4), Class: isa.Branch,
			Src1: isa.NoReg, Src2: isa.NoReg, Dst: isa.NoReg,
			Target: 0x5000, Taken: s.Bool(0.5),
		}
		if u.Access(in) {
			t.Fatal("perfect unit mispredicted")
		}
	}
	j := &isa.Inst{PC: 0x100, Class: isa.Jump, Src1: isa.NoReg, Src2: isa.NoReg, Dst: isa.NoReg, Target: 0x900, Taken: true}
	if u.Access(j) {
		t.Fatal("perfect unit mispredicted a jump")
	}
}

func TestUnitPanicsOnNonControl(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	u := &Unit{Dir: Perfect{}}
	u.Access(&isa.Inst{Class: isa.IntALU, Src1: isa.NoReg, Src2: isa.NoReg, Dst: isa.NoReg})
}

func TestMPKI(t *testing.T) {
	s := Stats{DirMispredict: 5, BTBMispredict: 5}
	if got := s.MPKI(1000); got != 10 {
		t.Errorf("MPKI = %v, want 10", got)
	}
	if got := (Stats{}).MPKI(0); got != 0 {
		t.Errorf("MPKI(0 insts) = %v", got)
	}
}

// Determinism: identical access streams produce identical outcome streams.
func TestPredictorDeterminismProperty(t *testing.T) {
	mk := func() []Predictor {
		return []Predictor{
			NewBimodal(256),
			NewGShare(256, 8),
			NewLocal(64, 6),
			NewTournament(NewBimodal(128), NewGShare(128, 6), 128),
		}
	}
	f := func(seed uint64) bool {
		a, b := mk(), mk()
		s1, s2 := rng.New(seed), rng.New(seed)
		for k := range a {
			for i := 0; i < 300; i++ {
				pc1 := uint64(0x1000 + s1.Intn(128)*4)
				pc2 := uint64(0x1000 + s2.Intn(128)*4)
				if a[k].Access(pc1, s1.Bool(0.7)) != b[k].Access(pc2, s2.Bool(0.7)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Accuracy ordering on a predictable stream: perfect >= gshare >= static on
// a strongly biased, patterned workload.
func TestAccuracyOrdering(t *testing.T) {
	run := func(p Predictor) float64 {
		s := rng.New(31)
		correct, total := 0, 0
		for i := 0; i < 5000; i++ {
			pc := uint64(0x1000 + s.Intn(32)*4)
			taken := (i/3)%2 == 0 // patterned
			if p.Access(pc, taken) {
				correct++
			}
			total++
		}
		return float64(correct) / float64(total)
	}
	perfect := run(Perfect{})
	gshare := run(NewGShare(4096, 10))
	static := run(&Static{Taken: true})
	if !(perfect >= gshare && gshare > static) {
		t.Errorf("ordering violated: perfect=%.3f gshare=%.3f static=%.3f", perfect, gshare, static)
	}
}
