package service

import (
	"fmt"
	"net/http"
	"time"

	"intervalsim/internal/workload"
)

// BatchPointSpec names one design point of a batch: the coordinator's
// global sequence number plus the (width, depth, rob) knobs, resolved
// through experiments.Point so the point means the same processor as in
// cmd/sweep and /v1/sweep.
type BatchPointSpec struct {
	Seq   int `json:"seq"`
	Width int `json:"width"`
	Depth int `json:"depth"`
	ROB   int `json:"rob"`
}

// BatchRequest asks for an explicit list of design points over one workload
// — the shard unit of distributed sweeps. One batch is one HTTP request, so
// a coordinator dispatching thousands of points pays per-shard, not
// per-point, request overhead, and each daemon resolves the workload's
// trace and overlay once per shard (and across shards via the caches).
type BatchRequest struct {
	Benchmark string           `json:"benchmark,omitempty"`
	Workload  *workload.Config `json:"workload,omitempty"`
	Insts     int              `json:"insts,omitempty"`
	Warmup    uint64           `json:"warmup,omitempty"`
	Pred      string           `json:"pred,omitempty"` // predictor preset for every point (default: baseline tournament)
	// VPred/FetchRate apply value prediction and variable-rate fetch to every
	// point, as in MachineSpec; rejected at admission when invalid.
	VPred     string  `json:"vpred,omitempty"`
	FetchRate float64 `json:"fetchrate,omitempty"`
	Mode      string  `json:"mode,omitempty"` // "sim" (default), "sampled", or "model"
	// Decompose adds the interval penalty decomposition (frontend, drain,
	// FU, short-data, long-data) to each sim-mode point — the columns
	// cmd/sweep's CSV carries. It costs one mispredict-penalty
	// decomposition pass per point.
	Decompose bool `json:"decompose,omitempty"`
	// SampleDetailed/SampleSkip are the systematic-sampling phase lengths
	// (sampled mode only; both must be positive): simulate SampleDetailed
	// instructions cycle-accurately, functionally warm SampleSkip, repeat.
	// The request's Warmup becomes the initial functional skip.
	SampleDetailed uint64           `json:"sample_detailed,omitempty"`
	SampleSkip     uint64           `json:"sample_skip,omitempty"`
	TimeoutMS      int              `json:"timeout_ms,omitempty"` // per design point
	Points         []BatchPointSpec `json:"points"`
}

// BatchPoint is one NDJSON line of a batch stream, emitted in completion
// order (Seq echoes the request's spec). Failed points carry Error and
// Outcome instead of measurements.
type BatchPoint struct {
	Seq   int `json:"seq"`
	Width int `json:"width"`
	Depth int `json:"depth"`
	ROB   int `json:"rob"`

	IPC        float64 `json:"ipc,omitempty"`
	AvgPenalty float64 `json:"avg_penalty,omitempty"`
	Cycles     uint64  `json:"cycles,omitempty"`

	// Sim-mode decomposition (Decompose).
	PenFrontend float64 `json:"pen_frontend,omitempty"`
	PenDrain    float64 `json:"pen_drain,omitempty"`
	PenFU       float64 `json:"pen_fu,omitempty"`
	PenShortD   float64 `json:"pen_shortd,omitempty"`
	PenLongD    float64 `json:"pen_longd,omitempty"`

	// Model-mode cycle stack.
	CPIBase     float64 `json:"cpi_base,omitempty"`
	CPIBpred    float64 `json:"cpi_bpred,omitempty"`
	CPIICache   float64 `json:"cpi_icache,omitempty"`
	CPILongData float64 `json:"cpi_longd,omitempty"`
	CPIVMisspec float64 `json:"cpi_vmisspec,omitempty"`

	// Sampled-mode confidence interval: the ratio-estimator CPI over the
	// measurement units with its Student-t bounds (see uarch.SampleStats).
	CPI         float64 `json:"cpi,omitempty"`
	CPILo       float64 `json:"cpi_lo,omitempty"`
	CPIHi       float64 `json:"cpi_hi,omitempty"`
	CPIRelErr   float64 `json:"cpi_rel_err,omitempty"`
	SampleUnits int     `json:"sample_units,omitempty"`

	Path string `json:"path,omitempty"`
	// Fallback is this point's own fast-path bypass provenance
	// (uarch.Result.Fallback).
	Fallback string `json:"fallback,omitempty"`
	Error    string `json:"error,omitempty"`
	Outcome  string `json:"outcome,omitempty"`
}

// BatchTrailer is the final NDJSON line of a batch stream.
type BatchTrailer = SweepTrailer

func (s *Server) resolveBatch(req *BatchRequest) (sweepInputs, error) {
	if len(req.Points) == 0 {
		return sweepInputs{}, fmt.Errorf("%w: batch has no points", errBadRequest)
	}
	for _, sp := range req.Points {
		if sp.Width <= 0 || sp.Depth <= 0 || sp.ROB <= 0 {
			return sweepInputs{}, fmt.Errorf("%w: point seq %d has non-positive knobs", errBadRequest, sp.Seq)
		}
	}
	in := sweepInputs{points: req.Points, decompose: req.Decompose}
	err := s.resolvePoints(SimulateRequest{
		Benchmark: req.Benchmark,
		Workload:  req.Workload,
		Insts:     req.Insts,
		Warmup:    req.Warmup,
		Machine:   MachineSpec{Pred: req.Pred, VPred: req.VPred, FetchRate: req.FetchRate},
		TimeoutMS: req.TimeoutMS,
	}, &in, len(req.Points), req.Mode, req.SampleDetailed, req.SampleSkip)
	if err != nil {
		return sweepInputs{}, err
	}
	return in, nil
}

// handleBatch streams an explicit design-point list as NDJSON: one
// BatchPoint per spec in completion order, then a BatchTrailer. This is the
// shard-dispatch surface of distributed sweeps (see internal/cluster): the
// semantics mirror /v1/sweep, but the caller chooses the points, so a
// coordinator can key shards by workload and keep each daemon's trace and
// overlay caches hot.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	var req BatchRequest
	if err := decodeJSON(w, r, &req); err != nil {
		s.reject(w, http.StatusBadRequest, err, outcomeBadInput)
		return
	}
	in, err := s.resolveBatch(&req)
	if err != nil {
		s.reject(w, http.StatusBadRequest, err, outcomeBadInput)
		return
	}
	// Batch dispatches come from the cluster coordinator, which stamps its
	// current fleet view on each one; adopt it before resolving artifacts so
	// the fills can already reach the peers.
	s.learnPeers(r)
	s.streamPoints(w, r, start, &in, "batch", func(pt BatchPoint) any { return pt })
}
