package ilp

import (
	"fmt"
	"reflect"
	"testing"

	"intervalsim/internal/isa"
	"intervalsim/internal/rng"
	"intervalsim/internal/trace"
	"intervalsim/internal/workload"
)

// machineTable is a machine-like latency table with a fractional load
// latency (L1 2 cycles plus a 0.37 share of an 8-cycle short-miss uplift).
func machineTable() Latencies {
	return Latencies{
		isa.IntALU: 1, isa.IntMul: 3, isa.IntDiv: 20, isa.FPAdd: 2, isa.FPMul: 4, isa.FPDiv: 12,
		isa.Load: 2 + 0.37*8, isa.Store: 1, isa.Branch: 1, isa.Jump: 1,
	}
}

// reuseTrace is a random trace with dense store→load reuse: memory
// operations draw from eight words, registers from twelve, and every fifth
// record or so is a branch.
func reuseTrace(seed uint64, n int) *trace.Trace {
	s := rng.New(seed)
	reg := func() int8 {
		if s.Bool(0.2) {
			return isa.NoReg
		}
		return int8(s.Intn(12))
	}
	tr := &trace.Trace{Insts: make([]isa.Inst, n)}
	for i := range tr.Insts {
		in := isa.Inst{PC: 0x4000 + 4*uint64(i), Src1: reg(), Src2: reg(), Dst: reg()}
		switch k := s.Intn(20); {
		case k < 5:
			in.Class, in.Addr = isa.Load, 0x8000+8*uint64(s.Intn(8))
		case k < 9:
			in.Class, in.Addr, in.Dst = isa.Store, 0x8000+8*uint64(s.Intn(8))+uint64(s.Intn(8)), isa.NoReg
		case k < 13:
			in.Class, in.Dst, in.Target, in.Taken = isa.Branch, isa.NoReg, 0x4000, s.Bool(0.5)
		default:
			in.Class = isa.Class(s.Intn(int(isa.FPDiv) + 1))
		}
		tr.Insts[i] = in
	}
	return tr
}

// TestKernelsMatchReference is the differential gate of the packed-trace
// kernels: Profile and ProfileResolution must return Characteristic values
// reflect.DeepEqual to the record-at-a-time reference passes — K, α and β
// bit for bit — over the suite and random store→load-heavy traces, three
// window ladders, the unit and a fractional machine table, every width and
// sample rate the model uses or could use, and maxInsts at 0, below the
// largest window, off a multiple of it, and past the trace end.
func TestKernelsMatchReference(t *testing.T) {
	const n = 60_000
	type prog struct {
		name string
		tr   *trace.Trace
	}
	var progs []prog
	for _, wc := range workload.Suite() {
		tr, err := trace.ReadAll(workload.MustNew(wc, n))
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, prog{wc.Name, tr})
	}
	for seed := uint64(1); seed <= 3; seed++ {
		progs = append(progs, prog{fmt.Sprintf("reuse%d", seed), reuseTrace(seed, 20_000+int(seed)*3_001)})
	}
	ladders := [][]int{DefaultWindows(), {2, 4, 8, 16, 32, 64, 96}, {2, 4, 5}}
	tables := []Latencies{UnitLatencies(), machineTable()}
	widths, samples := []int{1, 2, 4, 8}, []int{1, 4, 7}
	// Each (program, ladder) runs two of the four maxInsts cases; the k-th
	// resolution case takes width k%4 and sample k%3, so every twelve
	// consecutive cases cover every (width, sample) pair.
	k := 0
	for pi, p := range progs {
		soa := trace.Pack(p.tr)
		for li, windows := range ladders {
			largest := windows[len(windows)-1]
			limits := []int{0, largest - 1, 7*largest + 3, soa.Len() + 5}
			for _, maxInsts := range []int{limits[(pi+li)%4], limits[(pi+li+2)%4]} {
				name := fmt.Sprintf("%s/ladder%d/max%d", p.name, largest, maxInsts)
				for i, tab := range tables {
					got, err := Profile(soa, windows, tab, maxInsts)
					if err != nil {
						t.Fatal(err)
					}
					want, err := refProfile(p.tr.Reader(), windows, tableFunc(tab), maxInsts)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s table %d: Profile %+v, reference %+v", name, i, got, want)
					}
				}

				width, sample, table := widths[k%4], samples[k%3], tables[k/12%2]
				k++
				gotRes, err := ProfileResolution(soa, windows, table, width, maxInsts, sample)
				if err != nil {
					t.Fatal(err)
				}
				wantRes, err := refProfileResolution(p.tr.Reader(), windows, tableFunc(table), width, maxInsts, sample)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(gotRes, wantRes) {
					t.Errorf("%s width %d sample %d: ProfileResolution %+v, reference %+v",
						name, width, sample, gotRes, wantRes)
				}
			}
		}
	}
}

// TestProfileWindowsIndependent pins the tiling contract the model set
// relies on: K(w) measured with a whole ladder, sizes that do not divide
// the largest included, equals K(w) measured alone, bit for bit, under
// every table, as does the resolution characteristic.
func TestProfileWindowsIndependent(t *testing.T) {
	wc, _ := workload.SuiteConfig("gcc")
	soa, err := trace.PackReader(workload.MustNew(wc, 30_001))
	if err != nil {
		t.Fatal(err)
	}
	tables := []Latencies{UnitLatencies(), machineTable()}
	ladder := []int{2, 3, 4, 8, 16, 32, 64, 96, 128, 200}
	all := make([]Characteristic, len(tables))
	for ti, tab := range tables {
		if all[ti], err = Profile(soa, ladder, tab, 0); err != nil {
			t.Fatal(err)
		}
	}
	allRes, err := ProfileResolution(soa, ladder, tables[1], 4, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range ladder {
		for ti, tab := range tables {
			alone, err := Profile(soa, []int{w}, tab, 0)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := all[ti].K[i], alone.K[0]; got != want {
				t.Errorf("table %d: K(%d) = %v in the ladder, %v alone", ti, w, got, want)
			}
		}
		res, err := ProfileResolution(soa, []int{w}, tables[1], 4, 0, 4)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := allRes.K[i], res.K[0]; got != want {
			t.Errorf("resolution K(%d) = %v in the ladder, %v alone", w, got, want)
		}
	}
}

// TestKernelAllocationsIndependentOfLength pins the kernels' allocation
// profile: scratch is sized by the window ladder, never by the trace, so a
// ten times longer trace allocates exactly as often.
func TestKernelAllocationsIndependentOfLength(t *testing.T) {
	wc, _ := workload.SuiteConfig("crafty")
	long, err := trace.PackReader(workload.MustNew(wc, 200_000))
	if err != nil {
		t.Fatal(err)
	}
	short, err := trace.PackReader(workload.MustNew(wc, 20_000))
	if err != nil {
		t.Fatal(err)
	}
	kernels := map[string]func(*trace.SoA){
		"Profile": func(s *trace.SoA) {
			if _, err := Profile(s, DefaultWindows(), machineTable(), 0); err != nil {
				t.Fatal(err)
			}
		},
		"ProfileResolution": func(s *trace.SoA) {
			if _, err := ProfileResolution(s, DefaultWindows(), machineTable(), 4, 0, 4); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, run := range kernels {
		a := testing.AllocsPerRun(3, func() { run(short) })
		b := testing.AllocsPerRun(3, func() { run(long) })
		if a != b {
			t.Errorf("%s: %v allocations at 20K instructions, %v at 200K", name, a, b)
		}
	}
}
