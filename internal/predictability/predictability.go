// Package predictability characterizes the branch population of a trace:
// which static branches are trivially predictable, which carry history
// correlation, which are hard-to-predict (H2P), and which lose their
// performance to the BTB rather than the direction predictor. The paper's
// interval analysis prices each mispredict; this package answers the
// complementary question of *which branches* supply the mispredicts, in the
// spirit of "Branch Prediction Is Not a Solved Problem" (H2P analysis) and
// workload-characterization taxonomies.
//
// The core pass (Collect) walks a packed SoA trace once in program order,
// driving three predictors side by side: the *subject* predictor being
// characterized (with its BTB), a deep-history *reference* predictor, and a
// history-less *cheap* predictor. Per-branch outcome counts against all
// three separate "the subject got it wrong" from "this branch is
// fundamentally hard": a branch the reference nails but the cheap one
// misses is history-correlated; a branch even the reference misses is H2P.
package predictability

import (
	"fmt"
	"sort"

	"intervalsim/internal/bpred"
	"intervalsim/internal/isa"
	"intervalsim/internal/trace"
)

// Taxon is a predictability class for one static branch.
type Taxon uint8

// The taxa, in report order. Classification is first-match: BTB-limited
// beats the direction taxa (a branch whose direction is trivial but whose
// targets thrash the BTB is a BTB problem, whatever its bias), then the
// exact and near-exact bias classes, then history correlation, and H2P is
// the residue no predictor in the panel handles.
const (
	TaxonBTBLimited Taxon = iota
	TaxonAlwaysTaken
	TaxonAlwaysNotTaken
	TaxonBiased
	TaxonHistoryCorrelated
	TaxonH2P
	taxonCount
)

// String implements fmt.Stringer with fixed-width report labels.
func (t Taxon) String() string {
	switch t {
	case TaxonBTBLimited:
		return "btb-limited"
	case TaxonAlwaysTaken:
		return "always-taken"
	case TaxonAlwaysNotTaken:
		return "always-not-taken"
	case TaxonBiased:
		return "biased"
	case TaxonHistoryCorrelated:
		return "history-correlated"
	case TaxonH2P:
		return "h2p"
	default:
		return fmt.Sprintf("taxon(%d)", uint8(t))
	}
}

// Options configures a characterization pass. Zero-value thresholds and
// predictors are replaced with defaults: the subject defaults to the
// tournament preset (the uarch baseline predictor), the reference to a
// large TAGE, the cheap panel member to a bimodal table.
type Options struct {
	Subject bpred.Config // predictor whose mispredicts are attributed
	Ref     bpred.Config // deep-history reference: defines "predictable at all"
	Cheap   bpred.Config // history-less reference: defines "bias is enough"

	Warmup int // leading instructions that train predictors but are not counted

	BiasThreshold    float64 // min max-direction fraction for "biased" (default 0.98)
	RefAccThreshold  float64 // min reference accuracy for "history-correlated" (default 0.90)
	BTBMissThreshold float64 // min BTB miss rate on taken execs for "btb-limited" (default 0.10)
}

func (o Options) withDefaults() Options {
	if o.Subject.Kind == "" {
		o.Subject, _ = bpred.Preset("tournament")
	}
	if o.Ref.Kind == "" {
		o.Ref = bpred.Config{Kind: "tage", Entries: 4096, HistBits: 128}
	}
	if o.Cheap.Kind == "" {
		o.Cheap = bpred.Config{Kind: "bimodal", Entries: 16384}
	}
	if o.BiasThreshold == 0 {
		o.BiasThreshold = 0.98
	}
	if o.RefAccThreshold == 0 {
		o.RefAccThreshold = 0.90
	}
	if o.BTBMissThreshold == 0 {
		o.BTBMissThreshold = 0.10
	}
	return o
}

// BranchStats aggregates one static conditional branch.
type BranchStats struct {
	PC    uint64
	Execs uint64 // counted dynamic executions
	Taken uint64 // of which taken
	Flips uint64 // direction changes between consecutive executions

	SubjectMiss uint64 // subject direction mispredicts
	RefMiss     uint64 // reference direction mispredicts
	CheapMiss   uint64 // cheap-predictor direction mispredicts
	BTBMiss     uint64 // subject BTB wrong/absent target on taken execs

	Taxon   Taxon
	Penalty float64 // summed interval penalty, once attributed (else 0)
}

// Bias returns the fraction of executions going the branch's majority
// direction (0.5 = coin flip, 1 = fully biased).
func (b *BranchStats) Bias() float64 {
	if b.Execs == 0 {
		return 0
	}
	t := float64(b.Taken) / float64(b.Execs)
	if t < 0.5 {
		return 1 - t
	}
	return t
}

// SubjectAccuracy returns the subject predictor's direction accuracy.
func (b *BranchStats) SubjectAccuracy() float64 { return acc(b.SubjectMiss, b.Execs) }

// RefAccuracy returns the reference predictor's direction accuracy.
func (b *BranchStats) RefAccuracy() float64 { return acc(b.RefMiss, b.Execs) }

func acc(miss, execs uint64) float64 {
	if execs == 0 {
		return 0
	}
	return 1 - float64(miss)/float64(execs)
}

// Redirects returns the subject's total frontend redirects at this branch:
// direction mispredicts plus BTB target misses.
func (b *BranchStats) Redirects() uint64 { return b.SubjectMiss + b.BTBMiss }

// Profile is the result of a characterization pass.
type Profile struct {
	Opts     Options       // options after default resolution
	Insts    int           // counted (post-warmup) instructions
	Branches []BranchStats // every static conditional branch, sorted by PC
}

// Collect runs the characterization pass over a packed trace. The three
// panel predictors train on the whole trace; only post-warmup executions are
// counted. Jumps warm the subject's BTB exactly as a frontend would but are
// not classified (they have no direction to predict).
func Collect(soa *trace.SoA, opts Options) (*Profile, error) {
	opts = opts.withDefaults()
	subject, err := opts.Subject.Build()
	if err != nil {
		return nil, fmt.Errorf("predictability: subject: %w", err)
	}
	refUnit, err := opts.Ref.Build()
	if err != nil {
		return nil, fmt.Errorf("predictability: ref: %w", err)
	}
	cheapUnit, err := opts.Cheap.Build()
	if err != nil {
		return nil, fmt.Errorf("predictability: cheap: %w", err)
	}
	ref, cheap := refUnit.Dir, cheapUnit.Dir

	stats := make(map[uint64]*BranchStats)
	lastDir := make(map[uint64]bool)
	n := soa.Len()
	if opts.Warmup > n {
		opts.Warmup = n
	}
	for i := 0; i < n; i++ {
		switch soa.Class(i) {
		case isa.Branch:
			pc, taken := soa.PC[i], soa.Taken(i)
			sOK := subject.Dir.Access(pc, taken)
			btbHit := true
			if taken && subject.BTB != nil {
				btbHit = subject.BTB.Access(pc, soa.Target[i])
			}
			rOK := ref.Access(pc, taken)
			cOK := cheap.Access(pc, taken)
			if i < opts.Warmup {
				lastDir[pc] = taken
				continue
			}
			b := stats[pc]
			if b == nil {
				b = &BranchStats{PC: pc}
				stats[pc] = b
			}
			b.Execs++
			if taken {
				b.Taken++
			}
			if prev, seen := lastDir[pc]; seen && prev != taken {
				b.Flips++
			}
			lastDir[pc] = taken
			if !sOK {
				b.SubjectMiss++
			}
			if !rOK {
				b.RefMiss++
			}
			if !cOK {
				b.CheapMiss++
			}
			if taken && !btbHit {
				b.BTBMiss++
			}
		case isa.Jump:
			if subject.BTB != nil {
				subject.BTB.Access(soa.PC[i], soa.Target[i])
			}
		}
	}

	p := &Profile{Opts: opts, Insts: n - opts.Warmup}
	p.Branches = make([]BranchStats, 0, len(stats))
	for _, b := range stats {
		b.Taxon = classify(b, opts)
		p.Branches = append(p.Branches, *b)
	}
	sort.Slice(p.Branches, func(i, j int) bool { return p.Branches[i].PC < p.Branches[j].PC })
	return p, nil
}

func classify(b *BranchStats, opts Options) Taxon {
	if b.Taken > 0 {
		btbRate := float64(b.BTBMiss) / float64(b.Taken)
		if btbRate >= opts.BTBMissThreshold && b.SubjectAccuracy() >= opts.RefAccThreshold {
			return TaxonBTBLimited
		}
	}
	switch {
	case b.Taken == b.Execs:
		return TaxonAlwaysTaken
	case b.Taken == 0:
		return TaxonAlwaysNotTaken
	case b.Bias() >= opts.BiasThreshold:
		return TaxonBiased
	case b.RefAccuracy() >= opts.RefAccThreshold:
		return TaxonHistoryCorrelated
	default:
		return TaxonH2P
	}
}

// AttributePenalty folds per-PC interval penalties (e.g. from
// core.CostliestBranches over a simulator run with mispredict recording)
// into the profile, so taxon summaries can report penalty per taxon.
// Penalties for PCs absent from the profile are ignored.
func (p *Profile) AttributePenalty(byPC map[uint64]float64) {
	for i := range p.Branches {
		p.Branches[i].Penalty = byPC[p.Branches[i].PC]
	}
}

// TaxonSummary aggregates one taxon across the branch population.
type TaxonSummary struct {
	Taxon          Taxon
	Static         int     // static branches in the taxon
	Execs          uint64  // dynamic executions
	DirMispredicts uint64  // subject direction mispredicts
	Redirects      uint64  // subject frontend redirects (direction + BTB)
	Penalty        float64 // summed attributed interval penalty (cycles)
}

// Summaries aggregates the profile per taxon, in report order, including
// zero rows so golden tables keep a fixed shape.
func (p *Profile) Summaries() []TaxonSummary {
	out := make([]TaxonSummary, taxonCount)
	for i := range out {
		out[i].Taxon = Taxon(i)
	}
	for i := range p.Branches {
		b := &p.Branches[i]
		s := &out[b.Taxon]
		s.Static++
		s.Execs += b.Execs
		s.DirMispredicts += b.SubjectMiss
		s.Redirects += b.Redirects()
		s.Penalty += b.Penalty
	}
	return out
}

// TotalRedirects returns the subject's frontend redirects over the counted
// window (conditional branches only).
func (p *Profile) TotalRedirects() uint64 {
	var n uint64
	for i := range p.Branches {
		n += p.Branches[i].Redirects()
	}
	return n
}

// TotalDirMispredicts returns the subject's direction mispredicts over the
// counted window.
func (p *Profile) TotalDirMispredicts() uint64 {
	var n uint64
	for i := range p.Branches {
		n += p.Branches[i].SubjectMiss
	}
	return n
}

// TopH2P returns the k H2P branches with the most subject mispredicts,
// ties broken by PC — the "small set of hard branches" view.
func (p *Profile) TopH2P(k int) []BranchStats {
	var h2p []BranchStats
	for _, b := range p.Branches {
		if b.Taxon == TaxonH2P {
			h2p = append(h2p, b)
		}
	}
	sort.Slice(h2p, func(i, j int) bool {
		if h2p[i].SubjectMiss != h2p[j].SubjectMiss {
			return h2p[i].SubjectMiss > h2p[j].SubjectMiss
		}
		return h2p[i].PC < h2p[j].PC
	})
	if len(h2p) > k {
		h2p = h2p[:k]
	}
	return h2p
}
