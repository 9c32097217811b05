package ilp

import (
	"io"

	"intervalsim/internal/isa"
	"intervalsim/internal/trace"
)

// This file keeps the record-at-a-time form of the profiling passes as the
// reference the packed-trace kernels are checked against: every window is
// rebuilt from isa.Inst records and its dependences are rediscovered with a
// register array and a store map, independently of the packed trace's
// precomputed producer indices.

// tableFunc adapts a per-class latency table to the LatencyFunc form.
func tableFunc(t Latencies) LatencyFunc {
	return func(_ int, in *isa.Inst) float64 { return t[in.Class] }
}

// refProfile is the reference form of Profile for one latency function:
// the profiled records are chopped into non-overlapping windows of each
// size w, starting at records 0, w, 2w, … independently of the other sizes.
func refProfile(r trace.Reader, windows []int, lat LatencyFunc, maxInsts int) (Characteristic, error) {
	if err := checkWindows(windows); err != nil {
		return Characteristic{}, err
	}
	var buf []isa.Inst
	for maxInsts <= 0 || len(buf) < maxInsts {
		in, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return Characteristic{}, err
		}
		buf = append(buf, in)
	}
	sums := make([]float64, len(windows))
	counts := make([]int, len(windows))
	for i, w := range windows {
		for off := 0; off+w <= len(buf); off += w {
			sums[i] += CriticalPath(buf[off:off+w], lat)
			counts[i]++
		}
	}
	return characteristic(windows, sums, counts), nil
}

// refScheduledResolution is the reference resolution time of the last
// instruction of insts (a branch) on a machine dispatching width
// instructions per cycle, with unlimited functional units. Instruction i
// dispatches at cycle (i+1-n)/width relative to the branch, issues no
// earlier than one cycle after dispatch and when its producers complete,
// and completes lat(i) cycles later.
func refScheduledResolution(insts []isa.Inst, lat LatencyFunc, width int) float64 {
	n := len(insts)
	if n == 0 {
		return 0
	}
	if width <= 0 {
		width = 1
	}
	completion := make([]float64, n)
	var regDone [isa.NumRegs]float64
	for i := range regDone {
		regDone[i] = negInf
	}
	storeDone := make(map[uint64]float64)
	for i := range insts {
		in := &insts[i]
		issue := float64(i+1-n)/float64(width) + 1
		if r := in.Src1; r != isa.NoReg && regDone[r] > issue {
			issue = regDone[r]
		}
		if r := in.Src2; r != isa.NoReg && regDone[r] > issue {
			issue = regDone[r]
		}
		if in.Class == isa.Load {
			if d, ok := storeDone[in.Addr/8]; ok && d > issue {
				issue = d
			}
		}
		done := issue + lat(i, in)
		completion[i] = done
		if in.Dst != isa.NoReg {
			regDone[in.Dst] = done
		}
		if in.Class == isa.Store {
			storeDone[in.Addr/8] = done
		}
	}
	res := completion[n-1]
	if res < 0 {
		return 0
	}
	return res
}

const negInf = float64(-1 << 40)

// refProfileResolution is the reference form of ProfileResolution: a
// sliding buffer of the most recent records, with every sampled branch's
// windows rescheduled from scratch.
func refProfileResolution(r trace.Reader, windows []int, lat LatencyFunc, width, maxInsts, sample int) (Characteristic, error) {
	if err := checkWindows(windows); err != nil {
		return Characteristic{}, err
	}
	if sample <= 0 {
		sample = 1
	}
	largest := windows[len(windows)-1]
	buf := make([]isa.Inst, 0, 2*largest)
	sums := make([]float64, len(windows))
	counts := make([]int, len(windows))
	total, branchSeen := 0, 0
	for maxInsts <= 0 || total < maxInsts {
		in, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return Characteristic{}, err
		}
		if len(buf) == 2*largest {
			copy(buf, buf[largest:])
			buf = buf[:largest]
		}
		buf = append(buf, in)
		total++
		if in.Class != isa.Branch {
			continue
		}
		branchSeen++
		if branchSeen%sample != 0 {
			continue
		}
		for i, w := range windows {
			lo := len(buf) - w
			if lo < 0 {
				continue
			}
			sums[i] += refScheduledResolution(buf[lo:], lat, width)
			counts[i]++
		}
	}
	return characteristic(windows, sums, counts), nil
}
