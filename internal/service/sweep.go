package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"intervalsim/internal/core"
	"intervalsim/internal/experiments"
	"intervalsim/internal/overlay"
	"intervalsim/internal/trace"
	"intervalsim/internal/uarch"
)

// One evaluator computes every sweep point: EvalPoint. The daemon's three
// sweep endpoints resolve the shared artifacts with artifacts and submit
// points with runPoints; /v1/sweep and /v1/batch stream finished points as
// NDJSON, and /v1/sweepjobs commits each one to its durable journal.
// In-process cmd/sweep builds the same SweepArtifacts itself, schedules
// points on its own worker pool and calls EvalPoint, so a point means the
// same numbers wherever it runs.

// sweepInputs is a resolved sweep or batch request: the inputs every point
// shares, the engine, and the design points.
type sweepInputs struct {
	simInputs
	widths, depths, robs []int  // grid axes of a sweep request (its job identity)
	pred                 string // predictor preset name ("" = baseline)
	vpred                string // value-predictor preset name ("" = none)
	mode                 string // "sim", "sampled" or "model"
	decompose            bool   // sim mode: add the interval penalty decomposition
	sampleDetailed       uint64
	sampleSkip           uint64
	points               []BatchPointSpec
}

// resolvePoints validates what sweeps and batches share: the workload, insts,
// warmup and timeout, the machine axes applied to every point, the point
// cap, and the engine.
func (s *Server) resolvePoints(base SimulateRequest, in *sweepInputs, npoints int, mode string, detailed, skip uint64) error {
	var err error
	if in.simInputs, err = s.resolveSimulate(&base); err != nil {
		return err
	}
	if npoints > maxSweepPoints {
		return fmt.Errorf("%w: %d points exceeds the %d-point cap", errBadRequest, npoints, maxSweepPoints)
	}
	in.mode = mode
	if in.mode == "" {
		in.mode = "sim"
	}
	if in.mode != "sim" && in.mode != "sampled" && in.mode != "model" {
		return fmt.Errorf("%w: unknown mode %q (want sim, sampled or model)", errBadRequest, in.mode)
	}
	if in.decompose && in.mode != "sim" {
		return fmt.Errorf("%w: decompose requires sim mode", errBadRequest)
	}
	in.sampleDetailed, in.sampleSkip = detailed, skip
	if in.mode != "sampled" {
		return nil
	}
	if detailed == 0 || skip == 0 {
		return fmt.Errorf("%w: sampled mode needs positive sample_detailed and sample_skip", errBadRequest)
	}
	n := uint64(in.insts) - in.warmup
	if units := sampleUnits(n, detailed, skip); units > maxSampleUnits {
		return fmt.Errorf("%w: sample_detailed %d and sample_skip %d take %d measurement units over %d instructions, which exceeds the bound %d",
			errBadRequest, detailed, skip, units, n, maxSampleUnits)
	}
	return nil
}

// DefaultAxes returns the design-space axes a sweep covers when it names
// none: dispatch widths, frontend depths and ROB sizes, in output order.
// /v1/sweep, /v1/sweepjobs and cmd/sweep share them.
func DefaultAxes() (widths, depths, robs []int) {
	return []int{2, 4, 8}, []int{3, 7, 11}, []int{64, 128, 256}
}

// Grid enumerates the design points of the axes in canonical (width, depth,
// ROB) order, the order sweep CSV rows are written in. Seq is the index.
func Grid(widths, depths, robs []int) []BatchPointSpec {
	var out []BatchPointSpec
	for _, width := range widths {
		for _, depth := range depths {
			for _, rob := range robs {
				out = append(out, BatchPointSpec{Seq: len(out), Width: width, Depth: depth, ROB: rob})
			}
		}
	}
	return out
}

func (s *Server) resolveSweep(req *SweepRequest) (sweepInputs, error) {
	in := sweepInputs{widths: req.Widths, depths: req.Depths, robs: req.ROBs, pred: req.Pred, vpred: req.VPred}
	widths, depths, robs := DefaultAxes()
	if len(in.widths) == 0 {
		in.widths = widths
	}
	if len(in.depths) == 0 {
		in.depths = depths
	}
	if len(in.robs) == 0 {
		in.robs = robs
	}
	for _, axis := range []struct {
		name  string
		vs    []int
		limit int
	}{{"widths", in.widths, maxWidth}, {"depths", in.depths, maxDepth}, {"robs", in.robs, maxROB}} {
		for _, v := range axis.vs {
			if v <= 0 {
				return sweepInputs{}, fmt.Errorf("%w: axis values must be positive", errBadRequest)
			}
			if err := checkBounds([]bound{{axis.name, v, axis.limit}}); err != nil {
				return sweepInputs{}, err
			}
		}
	}
	err := s.resolvePoints(SimulateRequest{
		Benchmark: req.Benchmark,
		Workload:  req.Workload,
		Insts:     req.Insts,
		Warmup:    req.Warmup,
		Machine:   MachineSpec{Pred: req.Pred, VPred: req.VPred, FetchRate: req.FetchRate},
		TimeoutMS: req.TimeoutMS,
	}, &in, len(in.widths)*len(in.depths)*len(in.robs), req.Mode, req.SampleDetailed, req.SampleSkip)
	if err != nil {
		return sweepInputs{}, err
	}
	in.points = Grid(in.widths, in.depths, in.robs)
	return in, nil
}

// handleSweep streams a design-space sweep as NDJSON: one SweepPoint line
// per grid point in completion order, then a SweepTrailer.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	var req SweepRequest
	if err := decodeJSON(w, r, &req); err != nil {
		s.reject(w, http.StatusBadRequest, err, outcomeBadInput)
		return
	}
	in, err := s.resolveSweep(&req)
	if err != nil {
		s.reject(w, http.StatusBadRequest, err, outcomeBadInput)
		return
	}
	s.streamPoints(w, r, start, &in, "sweep", func(pt BatchPoint) any { return pt.sweepPoint() })
}

// SweepArtifacts are what every point of one sweep reads: the engine
// settings next to the shared packed trace, overlay and model set.
type SweepArtifacts struct {
	Mode           string // "sim", "sampled" or "model"
	Decompose      bool   // sim mode: add the interval penalty decomposition
	Warmup         uint64 // warmup instructions; sampled mode's initial functional skip
	SampleDetailed uint64 // sampled mode: instructions per detailed phase
	SampleSkip     uint64 // sampled mode: instructions warmed between phases

	Trace   *trace.Trace     // AoS view, for the penalty decomposition
	SoA     *trace.SoA       // packed trace every point simulates
	Overlay *overlay.Overlay // nil in sampled mode
	Models  *core.ModelSet   // model mode only
}

// artifacts resolves a sweep's shared artifacts once per sweep, and across
// sweeps through the caches, filled from fleet peers when possible. The
// overlay follows the resolved predictor, so every predictor kind gets its
// own memoized overlay and model. The simulator ignores an overlay in a
// fast-forwarded run (its fallback rule "overlay ignored:
// sampled/fast-forwarded run"), so sampled mode never computes one. Model
// mode takes the family's ModelSet from the server's model-set memo; a set
// it creates profiles the window ladder of the sweep's largest ROB up
// front.
func (s *Server) artifacts(in *sweepInputs) (*SweepArtifacts, error) {
	tr, soa, traceFP, err := s.sharedTrace(in.wc, in.insts)
	if err != nil {
		return nil, err
	}
	a := &SweepArtifacts{
		Mode: in.mode, Decompose: in.decompose, Warmup: in.warmup,
		SampleDetailed: in.sampleDetailed, SampleSkip: in.sampleSkip,
		Trace: tr, SoA: soa,
	}
	if in.mode == "sampled" {
		return a, nil
	}
	if a.Overlay, err = s.overlayFor(soa, traceFP, in.cfg.Pred, in.cfg.Mem, in.cfg.VPred); err != nil {
		return nil, err
	}
	if in.mode == "model" {
		maxROB := 2
		for _, sp := range in.points {
			maxROB = max(maxROB, sp.ROB)
		}
		if a.Models, err = s.modelSet(a.Overlay, in.simInputs, maxROB); err != nil {
			return nil, err
		}
	}
	return a, nil
}

// EvalPoint evaluates one design point of a sweep into pt: the computation
// behind every sweep CSV row and sweep endpoint line, in-process or on a
// daemon. Sim mode replays the shared overlay and, with Decompose, adds the
// interval penalty decomposition. Sampled mode reports the ratio-estimator
// CPI with its confidence interval; the warmup budget becomes the initial
// functional skip. Model mode evaluates the analytic model. cfg must carry
// the predictor and cache geometry the overlay was computed for, or the
// point falls back to live simulation (recorded in pt.Fallback). EvalPoint
// fills only measurement fields; the caller owns the point's identity.
func EvalPoint(ctx context.Context, a *SweepArtifacts, cfg uarch.Config, pt *BatchPoint) error {
	if a.Mode == "model" {
		pred, err := modelPoint(a.Models, cfg)
		if err != nil {
			return err
		}
		insts := float64(pred.Insts)
		pt.AvgPenalty = pred.AvgMispredictPenalty()
		pt.CPIBase = pred.Base / insts
		pt.CPIBpred = pred.Bpred / insts
		pt.CPIICache = pred.ICache / insts
		pt.CPILongData = pred.LongData / insts
		pt.CPIVMisspec = pred.VMisspec / insts
		if cpi := pred.CPI(); cpi > 0 {
			pt.IPC = 1 / cpi
		}
		pt.Path = "model"
		return nil
	}
	opts := uarch.Options{
		RecordMispredicts: true,
		RecordLoadLevels:  a.Decompose,
		WarmupInsts:       a.Warmup,
		Overlay:           a.Overlay,
	}
	if a.Mode == "sampled" {
		opts = uarch.Options{
			SampleStartSkip: a.Warmup,
			SampleDetailed:  a.SampleDetailed,
			SampleSkip:      a.SampleSkip,
		}
	}
	res, err := uarch.RunContext(ctx, a.SoA.Reader(), cfg, opts)
	if err != nil {
		return err
	}
	pt.IPC = res.IPC()
	pt.Cycles = res.Cycles
	pt.Path = res.Path
	pt.Fallback = res.Fallback
	if a.Mode == "sampled" {
		st := res.Sample
		if st == nil {
			return fmt.Errorf("%s: sampled run carries no sample statistics", cfg.Name)
		}
		pt.CPI = st.CPI.Mean
		pt.CPILo = st.CPI.Lower
		pt.CPIHi = st.CPI.Upper
		pt.CPIRelErr = st.CPI.RelErr
		pt.SampleUnits = st.Units
		return nil
	}
	pt.AvgPenalty = res.AvgMispredictPenalty()
	if !a.Decompose {
		return nil
	}
	dec, err := core.NewDecomposer(a.Trace, res)
	if err != nil {
		return err
	}
	m := core.Mean(dec.DecomposeAll())
	pt.AvgPenalty = m.Total
	pt.PenFrontend = m.Frontend
	pt.PenDrain = m.BaseILP
	pt.PenFU = m.FULatency
	pt.PenShortD = m.ShortDMiss
	pt.PenLongD = m.LongDMiss
	return nil
}

// runPoints is the submit loop of every sweep endpoint. It admits one pool
// task per point, in order, under the tenant and priority, waiting for queue
// space or quota headroom rather than failing, so a long sweep applies
// backpressure to its own producer. Canceling parent skips queued points and
// cancels running ones, freeing the worker slots. finish sees every point
// exactly once, possibly concurrently: its result, or an error line when it
// failed or was never admitted. runPoints returns after the last finish.
func (s *Server) runPoints(parent context.Context, tenant string, priority int, in *sweepInputs, a *SweepArtifacts, kind string, finish func(BatchPoint)) {
	var wg sync.WaitGroup
	wg.Add(len(in.points))
	for _, sp := range in.points {
		cfg := experiments.Point(sp.Width, sp.Depth, sp.ROB)
		cfg.Pred = in.cfg.Pred
		cfg.VPred = in.cfg.VPred
		cfg.FetchRate = in.cfg.FetchRate
		pt := BatchPoint{Seq: sp.Seq, Width: sp.Width, Depth: sp.Depth, ROB: sp.ROB}
		failed := func(err error, outcome string) {
			// A fresh line, never pt: an abandoned run may still write pt.
			finish(BatchPoint{
				Seq: sp.Seq, Width: sp.Width, Depth: sp.Depth, ROB: sp.ROB,
				Error: err.Error(), Outcome: outcome,
			})
			wg.Done()
		}
		t := &task{
			name:     fmt.Sprintf("%s-%s-%s", kind, in.wc.Name, cfg.Name),
			timeout:  in.timeout,
			priority: priority,
			tenant:   tenant,
			parent:   parent,
			run: func(ctx context.Context) error {
				return EvalPoint(ctx, a, cfg, &pt)
			},
			finish: func(err error, d time.Duration) {
				outcome := classify(err)
				s.metrics.observe(outcome, d)
				if err != nil {
					failed(err, outcome)
					return
				}
				finish(pt)
				wg.Done()
			},
		}
		if err := s.pool.SubmitWait(parent, t); err != nil {
			outcome := classify(err)
			s.metrics.count(outcome)
			failed(err, outcome)
		}
	}
	wg.Wait()
}

// streamPoints runs a sweep's points for a streaming endpoint: NDJSON lines
// in completion order, each point rendered in the endpoint's wire type by
// line, then a SweepTrailer. The shared artifacts are resolved before the
// stream starts, so an identical second sweep is pure cache hits.
func (s *Server) streamPoints(w http.ResponseWriter, r *http.Request, start time.Time, in *sweepInputs, kind string, line func(BatchPoint) any) {
	tenant, priority, err := admission(r)
	if err != nil {
		s.reject(w, http.StatusBadRequest, err, outcomeBadInput)
		return
	}
	a, err := s.artifacts(in)
	if err != nil {
		s.reject(w, http.StatusInternalServerError, err, outcomeError)
		return
	}
	// Admission check before committing to a stream: if the queue cannot
	// take even one point now, turn the whole sweep away.
	if ps := s.pool.Stats(); ps.Queued >= ps.Capacity {
		w.Header().Set("Retry-After", s.retryAfter())
		s.reject(w, http.StatusTooManyRequests, ErrQueueFull, outcomeRejected)
		return
	}

	lines := make(chan BatchPoint, len(in.points))
	go func() {
		s.runPoints(r.Context(), tenant, priority, in, a, kind, func(pt BatchPoint) { lines <- pt })
		close(lines)
	}()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	ok, failed := 0, 0
	for pt := range lines {
		if pt.Error == "" {
			ok++
		} else {
			failed++
		}
		enc.Encode(line(pt)) //nolint:errcheck // keep draining for the finishers
		if flusher != nil {
			flusher.Flush()
		}
	}
	enc.Encode(SweepTrailer{ //nolint:errcheck
		Done: true, Points: len(in.points), OK: ok, Failed: failed,
		Mode: in.mode, Elapsed: time.Since(start).Round(time.Millisecond).String(),
	})
}

// sweepPoint renders pt in the /v1/sweep wire type, which carries no
// decomposition columns.
func (pt BatchPoint) sweepPoint() SweepPoint {
	return SweepPoint{
		Seq: pt.Seq, Width: pt.Width, Depth: pt.Depth, ROB: pt.ROB,
		IPC: pt.IPC, AvgMispredictPenalty: pt.AvgPenalty, Cycles: pt.Cycles,
		CPIBase: pt.CPIBase, CPIBpred: pt.CPIBpred, CPIICache: pt.CPIICache,
		CPILongData: pt.CPILongData, CPIVMisspec: pt.CPIVMisspec,
		CPI: pt.CPI, CPILo: pt.CPILo, CPIHi: pt.CPIHi, CPIRelErr: pt.CPIRelErr, SampleUnits: pt.SampleUnits,
		Path: pt.Path, Fallback: pt.Fallback,
		Error: pt.Error, Outcome: pt.Outcome,
	}
}
