package core

import (
	"fmt"

	"intervalsim/internal/cache"
	"intervalsim/internal/isa"
	"intervalsim/internal/trace"
	"intervalsim/internal/uarch"
)

// Breakdown splits one measured branch misprediction penalty into the
// paper's contributors. All values are cycles; they satisfy
//
//	Total = Frontend + BaseILP + FULatency + ShortDMiss + LongDMiss + Residual
//
// BaseILP is the unit-latency critical path through the window contents to
// the branch — the drain time a 1-cycle machine would need. It embodies both
// contributor (ii), because the window holds at most the instructions
// dispatched since the last miss event, and contributor (iii), the program's
// inherent ILP. FULatency and ShortDMiss are the critical-path stretch from
// real functional-unit latencies and from loads that missed L1 but hit L2.
// LongDMiss (stretch from loads serviced by memory that feed the branch) is
// reported separately: the paper treats long misses as their own miss-event
// class, and a branch waiting on one exposes the overlap the paper
// discusses. Residual is measured-minus-modeled: issue-width contention and
// other second-order effects.
type Breakdown struct {
	Frontend   float64 // (i) pipeline refill
	BaseILP    float64 // (ii)+(iii) unit-latency window drain to the branch
	FULatency  float64 // (iv)
	ShortDMiss float64 // (v)
	LongDMiss  float64 // long-miss overlap exposed on the resolution path
	Residual   float64 // contention and second-order effects (can be < 0)

	Total         float64 // measured penalty
	Occupancy     int     // window occupancy at branch dispatch
	SinceLastMiss uint64  // instructions since the previous miss event
}

// Decomposer computes per-misprediction breakdowns against the trace the
// simulator ran. It holds the scratch of its critical-path pass, reused
// from one record to the next, so it is not safe for concurrent use: make
// one per result and goroutine, as every caller does.
type Decomposer struct {
	insts    []isa.Inst
	levels   []uint8 // Result.LoadLevels
	records  []uarch.MispredictRecord
	frontend float64

	// lat[c] is the latency of a class-c instruction in each lane, and
	// loadLat[v] that of a load whose LoadLevels byte is v: 0 when no level
	// was recorded, else 1 + its cache.Level. Other bytes read as 0.
	lat     [isa.NumClasses]lanes
	loadLat [1 + cache.LongMiss + 1]lanes

	regs   [isa.NumRegs]lanes // per register: completion of its latest writer
	stores storeTable
}

// lanes carries one value per critical path of the decomposition. Each
// lane's latencies upgrade the previous lane's: every instruction takes one
// cycle (unit); real functional-unit latencies, with loads at the L1
// load-use latency (fu); observed short misses at the L2 latency (short);
// observed long misses at the memory latency (long).
type lanes struct{ unit, fu, short, long float64 }

// max raises each lane of l to o's where o's is greater.
func (l *lanes) max(o *lanes) {
	if o.unit > l.unit {
		l.unit = o.unit
	}
	if o.fu > l.fu {
		l.fu = o.fu
	}
	if o.short > l.short {
		l.short = o.short
	}
	if o.long > l.long {
		l.long = o.long
	}
}

// NewDecomposer prepares a decomposer for the given trace and simulation
// result. The result must have been produced with Options.RecordMispredicts
// and Options.RecordLoadLevels on that same trace.
func NewDecomposer(tr *trace.Trace, res *uarch.Result) (*Decomposer, error) {
	if res.Sampled {
		return nil, fmt.Errorf("%w: cannot decompose a sampled run (record indices are not trace positions)", ErrBadInput)
	}
	if len(res.Records) > 0 && res.LoadLevels == nil {
		return nil, fmt.Errorf("%w: result lacks load levels; run with RecordLoadLevels", ErrBadInput)
	}
	d := &Decomposer{insts: tr.Insts, levels: res.LoadLevels, records: res.Records, frontend: frontendRefill(res.Config)}
	for c := range d.lat {
		l := float64(res.Config.FU.OpLatency(isa.Class(c)))
		d.lat[c] = lanes{1, l, l, l}
	}
	lat := res.Config.Mem.Lat
	l1, l2, mem := float64(lat.L1), float64(lat.L2), float64(lat.Mem)
	for v := range d.loadLat {
		d.loadLat[v] = lanes{1, l1, l1, l1}
	}
	d.loadLat[1+cache.ShortMiss] = lanes{1, l1, l2, l2}
	d.loadLat[1+cache.LongMiss] = lanes{1, l1, l1, mem}
	return d, nil
}

// Decompose breaks down one misprediction record. Records without a resume
// (trace ended mid-penalty) return ok = false. It allocates only to grow
// its scratch for a window longer than any before.
func (d *Decomposer) Decompose(rec uarch.MispredictRecord) (Breakdown, bool) {
	if rec.Penalty() <= 0 || rec.Index >= uint64(len(d.insts)) {
		return Breakdown{}, false
	}
	p := d.paths(rec.OldestInROB, rec.Index)
	b := Breakdown{
		Frontend:      d.frontend,
		BaseILP:       p.unit,
		FULatency:     p.fu - p.unit,
		ShortDMiss:    p.short - p.fu,
		LongDMiss:     p.long - p.short,
		Total:         rec.Penalty(),
		Occupancy:     rec.Occupancy,
		SinceLastMiss: rec.SinceLastMiss,
	}
	b.Residual = b.Total - b.Frontend - p.long
	return b, true
}

// DecomposeAll breaks down every complete record of the result.
func (d *Decomposer) DecomposeAll() []Breakdown {
	out := make([]Breakdown, 0, len(d.records))
	for _, rec := range d.records {
		if b, ok := d.Decompose(rec); ok {
			out = append(out, b)
		}
	}
	return out
}

// paths returns the four critical paths through the window of trace
// records [base, last] that end at record last: the resolution time of the
// branch there under each lane's latencies. One forward pass computes every
// lane: a record completes its latency after the latest of its register
// producers and, for a load, of the latest store to its word, counting only
// producers inside the window. Each lane performs the additions and
// comparisons of a separate pass over that lane alone.
func (d *Decomposer) paths(base, last uint64) lanes {
	clear(d.regs[:])
	d.stores.reset(int(last - base + 1))
	var done lanes
	for i := base; i <= last; i++ {
		in := &d.insts[i]
		var ready lanes
		if r := in.Src1; r != isa.NoReg {
			ready.max(&d.regs[r])
		}
		if r := in.Src2; r != isa.NoReg {
			ready.max(&d.regs[r])
		}
		lat := &d.lat[in.Class]
		if in.Class == isa.Load {
			if s := d.stores.find(in.Addr / 8); s != nil {
				ready.max(s)
			}
			lat = &d.loadLat[0]
			if i < uint64(len(d.levels)) && int(d.levels[i]) < len(d.loadLat) {
				lat = &d.loadLat[d.levels[i]]
			}
		}
		done = lanes{ready.unit + lat.unit, ready.fu + lat.fu, ready.short + lat.short, ready.long + lat.long}
		if in.Dst != isa.NoReg {
			d.regs[in.Dst] = done
		}
		if in.Class == isa.Store {
			*d.stores.put(in.Addr / 8) = done
		}
	}
	return done
}

// storeTable maps a word address to the completion lanes of the latest
// store to it in the current window: open addressing with linear probing.
// A slot is live only while its stamp equals gen, so starting a window
// costs one increment instead of a clear.
type storeTable struct {
	gen   uint32
	shift uint // 64 − log2(len(slots)): a hash keeps its top bits
	slots []storeSlot
}

type storeSlot struct {
	stamp uint32
	word  uint64
	done  lanes
}

// reset empties the table for a window of n records, growing it so that at
// most half its slots can fill.
func (t *storeTable) reset(n int) {
	if len(t.slots) < 2*n {
		size, bits := 64, uint(6)
		for size < 2*n {
			size, bits = 2*size, bits+1
		}
		t.slots, t.shift, t.gen = make([]storeSlot, size), 64-bits, 0
	}
	t.gen++
	if t.gen == 0 { // wrapped: no stale stamp may alias the new generation
		clear(t.slots)
		t.gen = 1
	}
}

// slot returns word's slot, or the free slot where word would go.
func (t *storeTable) slot(word uint64) *storeSlot {
	mask := len(t.slots) - 1
	for i := int((word * 0x9e3779b97f4a7c15) >> t.shift); ; i = (i + 1) & mask {
		if s := &t.slots[i]; s.stamp != t.gen || s.word == word {
			return s
		}
	}
}

// find returns the lanes stored for word, or nil.
func (t *storeTable) find(word uint64) *lanes {
	if s := t.slot(word); s.stamp == t.gen {
		return &s.done
	}
	return nil
}

// put returns the slot for word's lanes, claiming one if word has none.
func (t *storeTable) put(word uint64) *lanes {
	s := t.slot(word)
	s.stamp, s.word = t.gen, word
	return &s.done
}

// Mean returns the element-wise mean of breakdowns (zero value if empty).
func Mean(bs []Breakdown) Breakdown {
	var m Breakdown
	if len(bs) == 0 {
		return m
	}
	var occ, since float64
	for _, b := range bs {
		m.Frontend += b.Frontend
		m.BaseILP += b.BaseILP
		m.FULatency += b.FULatency
		m.ShortDMiss += b.ShortDMiss
		m.LongDMiss += b.LongDMiss
		m.Residual += b.Residual
		m.Total += b.Total
		occ += float64(b.Occupancy)
		since += float64(b.SinceLastMiss)
	}
	n := float64(len(bs))
	m.Frontend /= n
	m.BaseILP /= n
	m.FULatency /= n
	m.ShortDMiss /= n
	m.LongDMiss /= n
	m.Residual /= n
	m.Total /= n
	m.Occupancy = int(occ/n + 0.5)
	m.SinceLastMiss = uint64(since/n + 0.5)
	return m
}
