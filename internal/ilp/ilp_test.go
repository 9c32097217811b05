package ilp

import (
	"math"
	"testing"
	"testing/quick"

	"intervalsim/internal/isa"
	"intervalsim/internal/rng"
	"intervalsim/internal/trace"
)

func alu(src, dst int8) isa.Inst {
	return isa.Inst{Class: isa.IntALU, Src1: src, Src2: isa.NoReg, Dst: dst}
}

func TestCriticalPathEmpty(t *testing.T) {
	if CriticalPath(nil, UnitLatency) != 0 || CriticalPathTo(nil, UnitLatency) != 0 {
		t.Fatal("empty window should have zero critical path")
	}
}

func TestCriticalPathSerialChain(t *testing.T) {
	// r8 = f(r8) × 10: fully serial.
	insts := make([]isa.Inst, 10)
	for i := range insts {
		insts[i] = alu(8, 8)
	}
	if got := CriticalPath(insts, UnitLatency); got != 10 {
		t.Errorf("serial chain CP = %v, want 10", got)
	}
	if got := CriticalPathTo(insts, UnitLatency); got != 10 {
		t.Errorf("serial chain CPTo = %v, want 10", got)
	}
}

func TestCriticalPathIndependent(t *testing.T) {
	insts := make([]isa.Inst, 10)
	for i := range insts {
		insts[i] = alu(isa.NoReg, int8(8+i))
	}
	if got := CriticalPath(insts, UnitLatency); got != 1 {
		t.Errorf("independent CP = %v, want 1", got)
	}
}

func TestCriticalPathToVersusMax(t *testing.T) {
	// A long chain into r8 plus a final independent instruction: the window
	// max is the chain, but the path TO the last instruction is 1.
	insts := []isa.Inst{alu(8, 8), alu(8, 8), alu(8, 8), alu(isa.NoReg, 20)}
	if got := CriticalPath(insts, UnitLatency); got != 3 {
		t.Errorf("CP = %v, want 3", got)
	}
	if got := CriticalPathTo(insts, UnitLatency); got != 1 {
		t.Errorf("CPTo = %v, want 1", got)
	}
	// If the last instruction reads the chain, it extends it.
	insts[3] = alu(8, 20)
	if got := CriticalPathTo(insts, UnitLatency); got != 4 {
		t.Errorf("CPTo with dependence = %v, want 4", got)
	}
}

func TestCriticalPathLatencies(t *testing.T) {
	lat := func(_ int, in *isa.Inst) float64 {
		if in.Class == isa.IntMul {
			return 3
		}
		return 1
	}
	insts := []isa.Inst{
		{Class: isa.IntMul, Src1: 8, Src2: isa.NoReg, Dst: 8},
		{Class: isa.IntMul, Src1: 8, Src2: isa.NoReg, Dst: 8},
		alu(8, 9),
	}
	if got := CriticalPathTo(insts, lat); got != 7 {
		t.Errorf("latency-weighted CPTo = %v, want 7", got)
	}
}

func TestCriticalPathMemoryDependence(t *testing.T) {
	st := isa.Inst{Class: isa.Store, Src1: 1, Src2: 8, Addr: 0x1000}
	ld := isa.Inst{Class: isa.Load, Src1: 1, Src2: isa.NoReg, Dst: 9, Addr: 0x1000}
	use := alu(9, 10)
	chain := []isa.Inst{alu(8, 8), alu(8, 8), st, ld, use}
	// 2 (chain) + 1 (store) + 1 (load) + 1 (use) = 5 through memory.
	if got := CriticalPathTo(chain, UnitLatency); got != 5 {
		t.Errorf("store→load chain CPTo = %v, want 5", got)
	}
	// Different address: no memory dependence, use path = load(1)+use(1) = 2.
	chain[3].Addr = 0x2000
	if got := CriticalPathTo(chain, UnitLatency); got != 2 {
		t.Errorf("no-alias CPTo = %v, want 2", got)
	}
}

func TestCriticalPathIndexPassedThrough(t *testing.T) {
	seen := map[int]bool{}
	lat := func(i int, _ *isa.Inst) float64 {
		seen[i] = true
		return 1
	}
	CriticalPath([]isa.Inst{alu(8, 8), alu(8, 8), alu(8, 8)}, lat)
	if len(seen) != 3 || !seen[0] || !seen[2] {
		t.Errorf("indices seen: %v", seen)
	}
}

// Property: critical path is monotone in latency and bounded by
// sum-of-latencies and below by max latency.
func TestCriticalPathBoundsProperty(t *testing.T) {
	f := func(seed uint64, n8 uint8) bool {
		n := int(n8%40) + 1
		s := rng.New(seed)
		insts := make([]isa.Inst, n)
		for i := range insts {
			var src int8 = isa.NoReg
			if s.Bool(0.5) && i > 0 {
				src = insts[i-1].Dst
			}
			insts[i] = alu(src, int8(8+s.Intn(16)))
		}
		cp1 := CriticalPath(insts, UnitLatency)
		cp2 := CriticalPath(insts, func(_ int, _ *isa.Inst) float64 { return 2 })
		if cp2 != 2*cp1 {
			return false // uniform scaling must scale the path
		}
		return cp1 >= 1 && cp1 <= float64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// chainTrace emits a stream where each instruction depends on the previous
// with probability p.
func chainTrace(seed uint64, n int, p float64) *trace.Trace {
	s := rng.New(seed)
	tr := &trace.Trace{Insts: make([]isa.Inst, 0, n)}
	prev := int8(8)
	for i := 0; i < n; i++ {
		var src int8 = isa.NoReg
		if s.Bool(p) {
			src = prev
		}
		dst := int8(8 + s.Intn(32))
		tr.Insts = append(tr.Insts, alu(src, dst))
		prev = dst
	}
	return tr
}

func TestProfileValidation(t *testing.T) {
	soa := trace.Pack(chainTrace(1, 100, 0.5))
	if _, err := Profile(soa, nil, UnitLatencies(), 0); err == nil {
		t.Error("empty windows accepted")
	}
	if _, err := Profile(soa, []int{4, 4}, UnitLatencies(), 0); err == nil {
		t.Error("non-ascending windows accepted")
	}
	if _, err := Profile(soa, []int{0, 4}, UnitLatencies(), 0); err == nil {
		t.Error("zero window accepted")
	}
	negative, nan := UnitLatencies(), UnitLatencies()
	negative[isa.IntMul], nan[isa.Load] = -1, math.NaN()
	if _, err := Profile(soa, []int{2, 4}, negative, 0); err == nil {
		t.Error("negative latency accepted")
	}
	if _, err := Profile(soa, []int{2, 4}, nan, 0); err == nil {
		t.Error("NaN latency accepted")
	}
}

func TestProfileKGrowsWithWindow(t *testing.T) {
	c, err := Profile(trace.Pack(chainTrace(2, 50000, 0.6)), DefaultWindows(), UnitLatencies(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(c.K); i++ {
		if c.K[i] < c.K[i-1] {
			t.Errorf("K not monotone: K[%d]=%v < K[%d]=%v", c.Windows[i], c.K[i], c.Windows[i-1], c.K[i-1])
		}
	}
	if c.Alpha <= 0 || c.Beta <= 0 {
		t.Errorf("fit failed: alpha=%v beta=%v", c.Alpha, c.Beta)
	}
}

func TestProfileSeparatesILPLevels(t *testing.T) {
	lo, err := Profile(trace.Pack(chainTrace(3, 50000, 0.9)), DefaultWindows(), UnitLatencies(), 0)
	if err != nil {
		t.Fatal(err)
	}
	hi, err := Profile(trace.Pack(chainTrace(3, 50000, 0.1)), DefaultWindows(), UnitLatencies(), 0)
	if err != nil {
		t.Fatal(err)
	}
	// Low-ILP program: longer critical paths at every window size.
	for i := range lo.K {
		if lo.K[i] <= hi.K[i] {
			t.Errorf("window %d: low-ILP K %v <= high-ILP K %v", lo.Windows[i], lo.K[i], hi.K[i])
		}
	}
	if lo.IPC(128) >= hi.IPC(128) {
		t.Errorf("IPC ordering violated: %v >= %v", lo.IPC(128), hi.IPC(128))
	}
}

func TestFitRecoversPowerLaw(t *testing.T) {
	// Synthetic exact power law K = (w/2)^(1/2).
	c := Characteristic{Windows: []int{4, 16, 64, 256}}
	for _, w := range c.Windows {
		c.K = append(c.K, math.Sqrt(float64(w)/2))
	}
	c.fit()
	if math.Abs(c.Alpha-2) > 0.01 || math.Abs(c.Beta-2) > 0.01 {
		t.Errorf("fit alpha=%v beta=%v, want 2, 2", c.Alpha, c.Beta)
	}
	if got := c.Eval(100); math.Abs(got-math.Sqrt(50)) > 0.1 {
		t.Errorf("Eval(100) = %v", got)
	}
}

func TestEvalInterp(t *testing.T) {
	c := Characteristic{Windows: []int{2, 4}, K: []float64{2, 4}, Alpha: 1, Beta: 1}
	if got := c.EvalInterp(3); got != 3 {
		t.Errorf("interp(3) = %v, want 3", got)
	}
	if got := c.EvalInterp(2); got != 2 {
		t.Errorf("interp(2) = %v, want 2", got)
	}
	// Outside the profiled range: falls back to the fit (w/1)^(1/1) = w.
	if got := c.EvalInterp(10); got != 10 {
		t.Errorf("interp(10) = %v, want 10 (fit)", got)
	}
}

func TestEvalDegenerate(t *testing.T) {
	var c Characteristic
	if got := c.Eval(5); got != 5 {
		t.Errorf("degenerate Eval = %v, want fully-serial 5", got)
	}
	if c.Eval(0) != 0 || c.IPC(0) != 0 {
		t.Error("zero window should be zero")
	}
}

func TestProfileMaxInsts(t *testing.T) {
	c, err := Profile(trace.Pack(chainTrace(4, 10000, 0.5)), []int{2, 4}, UnitLatencies(), 100)
	if err != nil {
		t.Fatal(err)
	}
	if c.K[0] == 0 {
		t.Error("no windows profiled within limit")
	}
}
