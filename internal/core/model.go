package core

import (
	"cmp"
	"fmt"
	"slices"

	"intervalsim/internal/cache"
	"intervalsim/internal/ilp"
	"intervalsim/internal/isa"
	"intervalsim/internal/uarch"
)

// Model is the analytic interval model: it predicts branch misprediction
// penalties and whole-program CPI from (a) the machine configuration, (b)
// the program's ILP characteristics, and (c) a functional miss-event
// profile. Nothing here requires cycle-level simulation; the detailed
// simulator is used only to validate the predictions (experiment E9).
type Model struct {
	Cfg uarch.Config

	// KROB is the mean critical path of a ROB-sized window under machine
	// latencies: functional-unit latencies, the L1 load-use latency, and
	// the expected short-miss uplift on loads. A full window cannot drain
	// faster than ROBSize/KROB instructions a cycle, the inherent-ILP cap
	// on steady dispatch.
	KROB float64
	// KRes is the branch-resolution characteristic under machine latencies:
	// the mean critical path ending at a branch over the occupancy preceding
	// it. It saturates at the typical branch-chain depth, which is what a
	// mispredicted branch actually waits for.
	KRes ilp.Characteristic

	// Opts disables individual model refinements for ablation studies
	// (experiment A1). The zero value is the full model.
	Opts ModelOptions
}

// ModelOptions switches off individual refinements of the analytic model so
// their contribution to accuracy can be measured. All false = full model.
type ModelOptions struct {
	// NoSerialMisses treats every long D-miss as overlappable, ignoring the
	// pointer-chase dependence detection.
	NoSerialMisses bool
	// NoOverlapCredit charges isolated long misses the full memory latency
	// instead of crediting the window-fill overlap.
	NoOverlapCredit bool
	// NoFetchCap removes the taken-transfer fetch-break cap on the
	// steady-state dispatch rate.
	NoFetchCap bool
	// NoILPCap removes the inherent-ILP cap on the dispatch rate.
	NoILPCap bool
}

// resolutionSample profiles the resolution characteristic at every fourth
// branch.
const resolutionSample = 4

// windowLadder returns the window ladder of a ROB size: the window sizes at
// which the model measures the branch-resolution characteristic, powers of
// two below the ROB size and then the ROB size itself.
func windowLadder(rob int) []int {
	var out []int
	for w := 2; w < rob; w *= 2 {
		out = append(out, w)
	}
	return append(out, rob)
}

// MachineLatency is the expected-value latency table of the machine: class
// latencies from the FU pools, loads at L1 latency plus the expected
// short-miss uplift shortRatio·(L2−L1).
func MachineLatency(cfg uarch.Config, shortRatio float64) ilp.Latencies {
	var t ilp.Latencies
	for c := range t {
		t[c] = float64(cfg.FU.OpLatency(isa.Class(c)))
	}
	lat := cfg.Mem.Lat
	t[isa.Load] = float64(lat.L1) + shortRatio*float64(lat.L2-lat.L1)
	return t
}

// dispatchToIssue is the modeled gap between an instruction entering the
// window and its earliest issue.
const dispatchToIssue = 1

// frontendRefill is the modeled cost of refilling the frontend after a
// pipeline flush. With a variable-rate frontend (FetchRate in (0,1)) the
// first post-flush fetch groups trail a low-confidence branch and move at
// only FetchRate of full width, stretching the refill by the expected extra
// cycles per group, 1/rate − 1 (Ramachandran & Johnson).
func frontendRefill(cfg uarch.Config) float64 {
	d := float64(cfg.FrontendDepth)
	if r := cfg.FetchRate; r > 0 && r < 1 {
		d += 1/r - 1
	}
	return d
}

// MispredictPenalty predicts the penalty of a misprediction occurring
// sinceLast instructions after the previous miss event: the window drain
// (bounded by how much of the window could refill since the last event —
// contributor ii — and shaped by the branch-resolution characteristic under
// machine latencies — contributors iii, iv, v) plus the frontend refill
// (contributor i).
func (m *Model) MispredictPenalty(sinceLast uint64) float64 {
	occ := sinceLast
	if occ > uint64(m.Cfg.ROBSize) {
		occ = uint64(m.Cfg.ROBSize)
	}
	drain := 0.0
	if occ > 0 {
		drain = m.KRes.EvalInterp(int(occ))
	}
	return drain + dispatchToIssue + frontendRefill(m.Cfg)
}

// CPIBreakdown is the model's cycle stack, in total cycles. The paper's
// equation: C = N/Deff + Σ penalties.
type CPIBreakdown struct {
	Insts       uint64
	Base        float64 // N / effective dispatch rate
	Bpred       float64 // Σ misprediction penalties
	Mispredicts uint64  // branch mispredictions charged to Bpred
	ICache      float64 // Σ I-cache miss delays
	LongData    float64 // Σ serialized long D-miss delays (MLP-aware)
	VMisspec    float64 // Σ value-misspeculation flush penalties
}

// Total returns the predicted cycle count.
func (b CPIBreakdown) Total() float64 {
	return b.Base + b.Bpred + b.ICache + b.LongData + b.VMisspec
}

// AvgMispredictPenalty returns the model's mean misprediction penalty,
// Bpred over Mispredicts, or 0 when no misprediction was charged.
func (b CPIBreakdown) AvgMispredictPenalty() float64 {
	if b.Mispredicts == 0 {
		return 0
	}
	return b.Bpred / float64(b.Mispredicts)
}

// CPI returns the predicted cycles per instruction.
func (b CPIBreakdown) CPI() float64 {
	if b.Insts == 0 {
		return 0
	}
	return b.Total() / float64(b.Insts)
}

// PredictCPI evaluates the interval model over a functional profile, in one
// pass over its events in index order (a profile built from an overlay is in
// that order; any other stream is sorted into a copy first). The events of
// one instruction form one interval boundary, under the rule Segment uses.
func (m *Model) PredictCPI(p *Profile) (CPIBreakdown, error) {
	evs := inIndexOrder(p.Events)
	b := CPIBreakdown{Insts: p.Insts - p.Warmup}
	dEff := m.effectiveDispatch(p)
	b.Base = float64(b.Insts) / dEff

	lat := m.Cfg.Mem.Lat
	rob := uint64(m.Cfg.ROBSize)
	// Overlap credit for an isolated (non-serial) long miss: while the miss
	// is outstanding, dispatch continues until the reorder buffer fills, so
	// the observable stall is the memory latency minus the window-fill time
	// (Karkhanis-Smith first-order treatment). Serial (pointer-chase) misses
	// find the window already blocked and pay in full.
	longCredit := float64(m.Cfg.ROBSize) / dEff
	longCost := float64(lat.Mem) - longCredit
	if longCost < float64(lat.Mem)/4 {
		longCost = float64(lat.Mem) / 4
	}
	if m.Opts.NoOverlapCredit {
		longCost = float64(lat.Mem)
	}

	// A misprediction's penalty depends on its interval only through the
	// window occupancy, min(interval length - 1, ROB), so each occupancy up
	// to the longest interval is evaluated once.
	var longest, start, longMisses uint64
	for _, ev := range evs {
		if ev.Index >= p.Insts {
			break
		}
		if ev.Index >= start {
			longest = max(longest, ev.Index-start)
			start = ev.Index + 1
		}
		if ev.Kind == uarch.EvLongDMiss {
			longMisses++
		}
	}
	penalty := make([]float64, min(rob, longest)+1)
	for occ := range penalty {
		penalty[occ] = m.MispredictPenalty(uint64(occ))
	}

	// Long D-miss handling: misses whose leading edges fall within one
	// reorder window form a cluster that overlaps in memory (MLP). Within a
	// cluster, address-dependent misses (pointer chases) form chains that
	// serialize, while parallel chains still overlap each other — so the
	// cluster pays its deepest local dependence chain times the memory
	// latency, with the window-fill credit applied once. The open cluster
	// holds its misses in index order, all fewer than ROB after its first.
	cluster := make([]clusterMiss, 0, min(rob, longMisses))
	var clusterMax float64
	flushCluster := func() {
		if len(cluster) > 0 {
			b.LongData += clusterMax*float64(lat.Mem) - (float64(lat.Mem) - longCost)
		}
	}
	start = 0
	for i := 0; i < len(evs); {
		ev, next := boundary(evs, i)
		if ev.Index >= p.Insts {
			return CPIBreakdown{}, beyondTrace(ev.Index, p.Insts)
		}
		occ := min(ev.Index-start, uint64(len(penalty)-1))
		start = ev.Index + 1
		switch ev.Kind {
		case uarch.EvBranchMispredict:
			b.Bpred += penalty[occ]
			b.Mispredicts++
		case uarch.EvValueMisspec:
			// A confident-wrong value prediction flushes at dispatch and
			// resumes fetch when the misspeculated instruction executes —
			// the same drain-plus-refill shape as a branch mispredict.
			b.VMisspec += penalty[occ]
		case uarch.EvICacheMiss:
			if ev.Level == cache.LongMiss {
				b.ICache += float64(lat.Mem)
			} else {
				b.ICache += float64(lat.L2)
			}
		case uarch.EvLongDMiss:
			if len(cluster) == 0 || ev.Index-cluster[0].index >= rob {
				flushCluster()
				cluster, clusterMax = cluster[:0], 0
			}
			depth := 1.0
			if par, ok := serialParent(evs[i:next]); ok && !m.Opts.NoSerialMisses {
				// A parent outside the open cluster overlaps nothing here.
				if j, in := slices.BinarySearchFunc(cluster, par, clusterMiss.cmp); in {
					depth = cluster[j].depth + 1
				}
			}
			cluster = append(cluster, clusterMiss{index: ev.Index, depth: depth})
			if depth > clusterMax {
				clusterMax = depth
			}
		}
		i = next
	}
	flushCluster()
	return b, nil
}

// clusterMiss is one long D-miss of the open cluster and the length of its
// dependence chain inside the cluster.
type clusterMiss struct {
	index uint64
	depth float64
}

func (c clusterMiss) cmp(index uint64) int { return cmp.Compare(c.index, index) }

// serialParent returns the parent of the serial long D-miss among the
// events of one instruction, the last one in stream order if several are.
func serialParent(evs []uarch.MissEvent) (uint64, bool) {
	for i := len(evs) - 1; i >= 0; i-- {
		if ev := evs[i]; ev.Kind == uarch.EvLongDMiss && ev.Serial {
			return ev.Parent, true
		}
	}
	return 0, false
}

// effectiveDispatch returns the steady-state dispatch rate between miss
// events: the design width, capped by the program's inherent ILP under
// machine latencies (a full window cannot drain faster than ROB/KROB) and
// by the fetch rate under taken-transfer fetch breaks (a fetch group ends at
// a taken branch, so groups of g instructions need about g/width + 1/2
// cycles).
func (m *Model) effectiveDispatch(p *Profile) float64 {
	dEff := float64(m.Cfg.DispatchWidth)
	if k := m.KROB; k > 0 && !m.Opts.NoILPCap {
		if lim := float64(m.Cfg.ROBSize) / k; lim < dEff {
			dEff = lim
		}
	}
	if p.TakenXfers > 0 && !m.Opts.NoFetchCap {
		// A taken transfer ends the fetch group; the refetch starts aligned
		// at the target, so a group of g instructions costs E[ceil(g/W)] ≈
		// g/W + (W−1)/2W cycles (uniform residual in the last fetch cycle).
		w := float64(m.Cfg.FetchWidth)
		g := float64(p.Insts-p.Warmup) / float64(p.TakenXfers)
		fetchRate := g / (g/w + (w-1)/(2*w))
		if fetchRate < dEff {
			dEff = fetchRate
		}
	}
	return dEff
}

// ValidationError compares the model's CPI prediction with a measured
// cycle-level result and returns the signed relative error.
func ValidationError(predicted CPIBreakdown, measured *uarch.Result) (float64, error) {
	if measured.Insts == 0 || measured.CPI() == 0 {
		return 0, fmt.Errorf("%w: measured result is empty", ErrBadInput)
	}
	return (predicted.CPI() - measured.CPI()) / measured.CPI(), nil
}
