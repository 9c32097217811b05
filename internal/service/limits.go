package service

import (
	"fmt"
	"math"
	"time"

	"intervalsim/internal/cache"
	"intervalsim/internal/trace"
	"intervalsim/internal/uarch"
	"intervalsim/internal/workload"
)

// Admission bounds on every size-bearing field a request can carry. The
// simulator sizes its ROB, fetch queue and functional-unit pools from the
// machine, a worker builds the branch predictor's tables from it (for the
// simulator, and for the overlay the model reads), and the generator builds
// the program from the workload's structure, so a single unbounded field
// would let one request allocate tens of gigabytes. The bounds are
// constants, not options: each sits well above every preset, experiment,
// CLI default and benchmark request in the repository, and a request past
// one is rejected with HTTP 400 naming the field and its bound.
const (
	maxWidth        = 64      // fetch, dispatch, issue and commit width
	maxDepth        = 256     // frontend pipeline stages
	maxROB          = 1 << 12 // ROB and issue-queue entries
	maxFUs          = 64      // units per functional-unit pool
	maxPredEntries  = 1 << 18 // branch-predictor table entries
	maxBTBEntries   = 1 << 18
	maxCacheLines   = 1 << 20 // lines per cache level: Size / LineSize
	maxCacheWays    = 64
	maxVPredEntries = 1 << 18
	maxRegions      = 256
	maxBlocks       = 64 // basic blocks per region
	maxBlockSize    = 64 // instructions per basic block
	// maxSampleUnits bounds a sampled run's measurement units, one per
	// detailed phase: the simulator keeps a record and four float64
	// samples per unit.
	maxSampleUnits = 1 << 16

	maxInsts       = 20_000_000       // dynamic instructions per request
	maxSweepPoints = 4096             // design points per sweep or batch
	maxTimeout     = 10 * time.Minute // request-supplied deadlines are capped here
)

// maxFillBytes bounds one peer cache-fill transfer: the frame of a
// maxInsts-record trace plus room to spare. Overlays are strictly smaller
// (one byte per record plus a small header).
var maxFillBytes = int64(trace.WireSizeFor(maxInsts)) + 1<<16

// bound is one size-bearing request field and its admission limit.
type bound struct {
	field    string
	v, limit int
}

// checkBounds rejects the first field past its limit.
func checkBounds(bs []bound) error {
	for _, b := range bs {
		if b.v > b.limit {
			return fmt.Errorf("%w: %s %d exceeds the bound %d", errBadRequest, b.field, b.v, b.limit)
		}
	}
	return nil
}

// knobBounds are the bounds of one width/depth/rob design point; prefix
// names where the request carries it.
func knobBounds(prefix string, width, depth, rob int) []bound {
	return []bound{
		{prefix + "width", width, maxWidth},
		{prefix + "depth", depth, maxDepth},
		{prefix + "rob", rob, maxROB},
	}
}

// configBounds are the bounds of a full machine configuration.
func configBounds(c *uarch.Config) []bound {
	const p = "machine.config."
	bs := []bound{
		{p + "FetchWidth", c.FetchWidth, maxWidth},
		{p + "DispatchWidth", c.DispatchWidth, maxWidth},
		{p + "IssueWidth", c.IssueWidth, maxWidth},
		{p + "CommitWidth", c.CommitWidth, maxWidth},
		{p + "FrontendDepth", c.FrontendDepth, maxDepth},
		{p + "ROBSize", c.ROBSize, maxROB},
		{p + "IQSize", c.IQSize, maxROB},
		{p + "FU.IntALU.Count", c.FU.IntALU.Count, maxFUs},
		{p + "FU.IntMul.Count", c.FU.IntMul.Count, maxFUs},
		{p + "FU.IntDiv.Count", c.FU.IntDiv.Count, maxFUs},
		{p + "FU.FPAdd.Count", c.FU.FPAdd.Count, maxFUs},
		{p + "FU.FPMul.Count", c.FU.FPMul.Count, maxFUs},
		{p + "FU.FPDiv.Count", c.FU.FPDiv.Count, maxFUs},
		{p + "FU.MemPort.Count", c.FU.MemPort.Count, maxFUs},
		{p + "Pred.Entries", c.Pred.Entries, maxPredEntries},
		{p + "Pred.BTBEntries", c.Pred.BTBEntries, maxBTBEntries},
	}
	for _, l := range []struct {
		name string
		c    cache.Config
	}{{"L1I", c.Mem.L1I}, {"L1D", c.Mem.L1D}, {"L2", c.Mem.L2}} {
		lines := l.c.Size
		if l.c.LineSize > 0 {
			lines /= l.c.LineSize
		}
		bs = append(bs,
			bound{p + "Mem." + l.name + ".Size/LineSize", lines, maxCacheLines},
			bound{p + "Mem." + l.name + ".Ways", l.c.Ways, maxCacheWays})
	}
	if c.VPred != nil {
		bs = append(bs, bound{p + "VPred.Entries", c.VPred.Entries, maxVPredEntries})
	}
	return bs
}

// workloadBounds are the bounds of an inline workload's program structure.
func workloadBounds(wc *workload.Config) []bound {
	return []bound{
		{"workload.Regions", wc.Regions, maxRegions},
		{"workload.BlocksPerRegion", wc.BlocksPerRegion, maxBlocks},
		{"workload.BlockSize.Max", wc.BlockSize.Max, maxBlockSize},
	}
}

// sampleUnits is the number of measurement units a sampled run takes over
// n instructions past its warmup: one per period of detailed + skip
// instructions, the last one possibly cut short. A sum past the uint64
// range saturates, as the simulator saturates it.
func sampleUnits(n, detailed, skip uint64) uint64 {
	period := detailed + skip
	if period < skip {
		period = math.MaxUint64
	}
	return n/period + min(n%period, 1)
}
