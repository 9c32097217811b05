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

// One executor runs the design points of every sweep endpoint. /v1/sweep and
// /v1/batch stream finished points as NDJSON; /v1/sweepjobs commits each one
// to its durable journal. All three resolve the shared artifacts with
// artifacts, evaluate a point with evalPoint and submit points with
// runPoints. They differ only in how they consume a finished point.

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
	if npoints > s.opts.MaxSweepPoints {
		return fmt.Errorf("%w: %d points exceeds the %d-point cap", errBadRequest, npoints, s.opts.MaxSweepPoints)
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
	if in.mode == "sampled" && (detailed == 0 || skip == 0) {
		return fmt.Errorf("%w: sampled mode needs positive sample_detailed and sample_skip", errBadRequest)
	}
	return nil
}

func (s *Server) resolveSweep(req *SweepRequest) (sweepInputs, error) {
	in := sweepInputs{widths: req.Widths, depths: req.Depths, robs: req.ROBs, pred: req.Pred, vpred: req.VPred}
	if len(in.widths) == 0 {
		in.widths = []int{2, 4, 8}
	}
	if len(in.depths) == 0 {
		in.depths = []int{3, 7, 11}
	}
	if len(in.robs) == 0 {
		in.robs = []int{64, 128, 256}
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
	// Canonical grid order; Seq is the canonical index.
	for _, width := range in.widths {
		for _, depth := range in.depths {
			for _, rob := range in.robs {
				in.points = append(in.points, BatchPointSpec{Seq: len(in.points), Width: width, Depth: depth, ROB: rob})
			}
		}
	}
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

// sweepArtifacts are the inputs every point of one sweep reads.
type sweepArtifacts struct {
	tr  *trace.Trace     // AoS view, for the penalty decomposition
	soa *trace.SoA       // packed trace every point simulates
	ov  *overlay.Overlay // nil in sampled mode
	set *core.ModelSet   // model mode only
}

// artifacts resolves a sweep's shared artifacts once per sweep, and across
// sweeps through the caches, filled from fleet peers when possible. The
// overlay follows the resolved predictor, so every predictor kind gets its
// own memoized overlay and model. Sampled runs bypass overlay replay by
// design (precomputed dependences do not apply to fast-forwarded runs), so
// that mode never computes one. Model mode takes the ModelSet sized to the
// sweep's largest ROB from the server's model-set memo.
func (s *Server) artifacts(in *sweepInputs) (*sweepArtifacts, error) {
	tr, soa, err := s.sharedTrace(in.wc, in.insts)
	if err != nil {
		return nil, err
	}
	a := &sweepArtifacts{tr: tr, soa: soa}
	if in.mode == "sampled" {
		return a, nil
	}
	if a.ov, err = s.overlayFor(soa, in.cfg.Pred, in.cfg.Mem, in.cfg.VPred); err != nil {
		return nil, err
	}
	if in.mode == "model" {
		maxROB := 2
		for _, sp := range in.points {
			maxROB = max(maxROB, sp.ROB)
		}
		if a.set, err = s.modelSet(a.ov, in.simInputs, maxROB); err != nil {
			return nil, err
		}
	}
	return a, nil
}

// evalPoint evaluates one design point into pt. Sim mode replays the shared
// overlay and, when asked, adds the interval penalty decomposition: the
// computation behind cmd/sweep's sim-mode CSV row, so a distributed sweep
// merges to the same bytes as a single-process one. Sampled mode reports the
// ratio-estimator CPI with its confidence interval; the warmup budget becomes
// the initial functional skip. Model mode evaluates the analytic model.
func evalPoint(ctx context.Context, in *sweepInputs, a *sweepArtifacts, cfg uarch.Config, pt *BatchPoint) error {
	if in.mode == "model" {
		pred, pen, err := modelPoint(a.set, cfg)
		if err != nil {
			return err
		}
		insts := float64(pred.Insts)
		pt.AvgPenalty = pen
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
		RecordLoadLevels:  in.decompose,
		WarmupInsts:       in.warmup,
		Overlay:           a.ov,
	}
	if in.mode == "sampled" {
		opts = uarch.Options{
			SampleStartSkip: in.warmup,
			SampleDetailed:  in.sampleDetailed,
			SampleSkip:      in.sampleSkip,
		}
	}
	res, err := uarch.RunContext(ctx, a.soa.Reader(), cfg, opts)
	if err != nil {
		return err
	}
	pt.IPC = res.IPC()
	pt.Cycles = res.Cycles
	pt.Path = res.Path
	pt.Fallback = res.Fallback
	if in.mode == "sampled" {
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
	if !in.decompose {
		return nil
	}
	dec, err := core.NewDecomposer(a.tr, res)
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
func (s *Server) runPoints(parent context.Context, tenant string, priority int, in *sweepInputs, a *sweepArtifacts, kind string, finish func(BatchPoint)) {
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
				return evalPoint(ctx, in, a, cfg, &pt)
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
