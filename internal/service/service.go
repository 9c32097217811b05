package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"intervalsim/internal/cache"
	"intervalsim/internal/core"
	"intervalsim/internal/experiments"
	"intervalsim/internal/harness"
	"intervalsim/internal/overlay"
	"intervalsim/internal/store"
	"intervalsim/internal/uarch"
	"intervalsim/internal/version"
)

// Options tunes a Server. Zero values select production-reasonable
// defaults.
type Options struct {
	// Workers caps concurrently executing jobs; <= 0 means GOMAXPROCS.
	Workers int
	// QueueDepth bounds jobs waiting for a worker; <= 0 means 64. A full
	// queue rejects new work with 429 + Retry-After.
	QueueDepth int
	// DefaultTimeout is the per-job deadline when a request carries none;
	// <= 0 means 60s.
	DefaultTimeout time.Duration
	// TenantQuota caps one tenant's admitted (queued + running) jobs;
	// <= 0 disables per-tenant accounting.
	TenantQuota int
	// Store, when set, enables the durable layer: content-addressed result
	// caching, idempotent job IDs, and crash-resumable sweep jobs. The
	// server takes ownership of resuming incomplete journals at startup but
	// not of closing the store; the caller closes it after Shutdown.
	Store *store.Store
	// TraceCache overrides the trace cache; nil means the process-wide
	// experiments.DefaultTraceCache. cmd/bench injects private instances so
	// in-process fleet daemons cannot silently share artifacts through the
	// process memo, which would make per-daemon cost accounting dishonest.
	TraceCache *experiments.TraceCache
	// Peers is the static fleet peer list (base URLs) for cache fills; the
	// X-Peers header on batch dispatches refreshes it at runtime.
	Peers []string
}

// Daemon sizing. Like the admission bounds in limits.go these are
// constants, not options: no caller has needed another value.
const (
	// jobHistory bounds the finished jobs GET /v1/jobs/{id} still answers.
	jobHistory = 256
	// overlayCapacity bounds the overlay cache (one byte per instruction
	// per overlay) and the analytic model-set memo.
	overlayCapacity = 16
	// peerFillTimeout bounds one peer fetch; generous relative to LAN
	// transfer of the largest admissible artifact but far below recompute
	// cost.
	peerFillTimeout = 30 * time.Second
)

func defaultWorkers() int { return runtime.GOMAXPROCS(0) }

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = defaultWorkers()
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.DefaultTimeout <= 0 {
		o.DefaultTimeout = 60 * time.Second
	}
	if o.TraceCache == nil {
		o.TraceCache = experiments.DefaultTraceCache
	}
	return o
}

// Server is the intervalsimd service: the HTTP handler set plus the worker
// pool, job store, metrics, and the caches shared across requests. Traces
// are shared through the process-wide experiments memo (one generation +
// pack per (workload, insts) no matter how many clients ask); overlays are
// shared through the server's own bounded single-flight cache (one
// speculation pre-pass per (trace, predictor, cache geometry)), and so are
// analytic model sets (one set of ILP characteristics per modelKey).
type Server struct {
	opts     Options
	pool     *Pool
	jobs     *jobStore
	metrics  *metrics
	overlays *overlay.Cache
	models   *harness.Memo[modelKey, *core.ModelSet]
	traces   *experiments.TraceCache
	version  string

	// Fleet cache sharing (see peerfill.go): the daemon's peer view, its
	// fill counters, and the client used for peer fetches. Fills are served
	// from the trace and overlay caches above.
	peers    peerSet
	pf       peerFillCounters
	fillHTTP *http.Client

	// Readiness: false until startup journal replay has re-admitted every
	// incomplete durable job. /readyz answers 503 until then, so cluster
	// health probers route around a daemon that is still reconstructing
	// state (its answers would be incomplete duplicates, not wrong — but
	// admission of new durable jobs races the replay's journal scan).
	ready       atomic.Bool
	resumedJobs atomic.Int64
}

// New builds a Server and starts its worker pool. If a durable store is
// configured, incomplete sweep-job journals are replayed and resumed in the
// background; the server reports not-ready until that replay has finished.
// Callers own shutdown: call Shutdown to drain.
func New(opts Options) *Server {
	opts = opts.withDefaults()
	s := &Server{
		opts: opts,
		pool: NewPool(PoolOptions{
			Workers:        opts.Workers,
			QueueDepth:     opts.QueueDepth,
			DefaultTimeout: opts.DefaultTimeout,
			TenantQuota:    opts.TenantQuota,
		}),
		jobs:     newJobStore(jobHistory),
		metrics:  newMetrics(),
		overlays: overlay.NewCache(overlayCapacity),
		models:   harness.NewMemo[modelKey, *core.ModelSet](overlayCapacity),
		traces:   opts.TraceCache,
		fillHTTP: &http.Client{Timeout: peerFillTimeout},
		version:  version.String(),
	}
	s.peers.learn(opts.Peers)
	if opts.Store == nil {
		s.ready.Store(true)
	} else {
		go s.recoverJournals()
	}
	return s
}

// Ready reports whether startup recovery has completed.
func (s *Server) Ready() bool { return s.ready.Load() }

// Shutdown drains the pool: admission stops, queued and in-flight jobs
// finish (or are canceled when ctx expires). Call after the HTTP server has
// stopped accepting requests, so in-flight handlers can still submit their
// already-admitted work and poll job state.
func (s *Server) Shutdown(ctx context.Context) error { return s.pool.Close(ctx) }

// Handler returns the routed HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/simulate", s.handleSimulate)
	mux.HandleFunc("POST /v1/model", s.handleModel)
	mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	mux.HandleFunc("POST /v1/batch", s.handleBatch)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("POST /v1/sweepjobs", s.handleSweepJobSubmit)
	mux.HandleFunc("GET /v1/sweepjobs/{id}", s.handleSweepJob)
	mux.HandleFunc("GET /v1/sweepjobs/{id}/csv", s.handleSweepJobCSV)
	mux.HandleFunc("GET /v1/cache/trace/{fp}", s.handleTraceFillGet)
	mux.HandleFunc("GET /v1/cache/overlay/{fp}", s.handleOverlayFillGet)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// admission extracts the scheduling headers: X-Tenant names the quota
// bucket (default tenant when absent) and X-Priority selects the class.
func admission(r *http.Request) (tenant string, priority int, err error) {
	tenant = r.Header.Get("X-Tenant")
	switch p := r.Header.Get("X-Priority"); p {
	case "", "normal":
		priority = PriorityNormal
	case "high", "interactive":
		priority = PriorityHigh
	case "low", "batch":
		priority = PriorityLow
	default:
		err = fmt.Errorf("%w: unknown X-Priority %q (want high, normal, or low)", errBadRequest, p)
	}
	return tenant, priority, err
}

// ---- helpers ----

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // nothing to do for a dead client
}

type errorResponse struct {
	Error string `json:"error"`
}

func (s *Server) reject(w http.ResponseWriter, code int, err error, outcome string) {
	s.metrics.count(outcome)
	writeJSON(w, code, errorResponse{Error: err.Error()})
}

func decodeJSON(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("%w: %v", errBadRequest, err)
	}
	return nil
}

// statusFor maps a job outcome to the HTTP status of a synchronous reply.
func statusFor(outcome string) int {
	switch outcome {
	case outcomeBadInput:
		return http.StatusBadRequest
	case outcomeTimeout:
		return http.StatusGatewayTimeout
	case outcomeCanceled:
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// ---- simulation execution (shared by simulate jobs and sweep points) ----

// runSimulate executes one cycle-level run off the shared caches: packed
// trace from the experiments memo, speculation outcomes replayed from the
// server's overlay cache (bit-identical to live simulation), with ctx wired
// through to the simulator's cancellation watchdog.
func (s *Server) runSimulate(ctx context.Context, in simInputs) (*SimulateResult, error) {
	_, soa, traceFP, err := s.sharedTrace(in.wc, in.insts)
	if err != nil {
		return nil, err
	}
	ov, err := s.overlayFor(soa, traceFP, in.cfg.Pred, in.cfg.Mem, in.cfg.VPred)
	if err != nil {
		return nil, err
	}
	res, err := uarch.RunContext(ctx, soa.Reader(), in.cfg, uarch.Options{
		RecordMispredicts: true,
		WarmupInsts:       in.warmup,
		Overlay:           ov,
	})
	if err != nil {
		return nil, err
	}
	return newSimulateResult(in, res), nil
}

// runModel answers the same question from the analytic interval model: the
// functional profile and model characteristics come straight off the shared
// overlay, with no cycle-level simulation at all.
func (s *Server) runModel(_ context.Context, in simInputs) (*ModelResult, error) {
	_, soa, traceFP, err := s.sharedTrace(in.wc, in.insts)
	if err != nil {
		return nil, err
	}
	ov, err := s.overlayFor(soa, traceFP, in.cfg.Pred, in.cfg.Mem, in.cfg.VPred)
	if err != nil {
		return nil, err
	}
	set, err := s.modelSet(ov, in, in.cfg.ROBSize)
	if err != nil {
		return nil, err
	}
	pred, err := modelPoint(set, in.cfg)
	if err != nil {
		return nil, err
	}
	insts := float64(pred.Insts)
	out := &ModelResult{
		Benchmark:            in.wc.Name,
		Machine:              in.cfg.Name,
		Insts:                pred.Insts,
		CPI:                  pred.CPI(),
		CPIBase:              pred.Base / insts,
		CPIBpred:             pred.Bpred / insts,
		CPIICache:            pred.ICache / insts,
		CPILongData:          pred.LongData / insts,
		CPIVMisspec:          pred.VMisspec / insts,
		AvgMispredictPenalty: pred.AvgMispredictPenalty(),
	}
	if out.CPI > 0 {
		out.IPC = 1 / out.CPI
	}
	return out, nil
}

// modelKey identifies one memoized model set. The overlay pointer fixes the
// packed trace and the speculation fingerprints; the FU and cache latencies,
// warmup and instruction budget are the rest of what a set's family shares.
// A set answers every ROB size exactly, so the key has no ROB size: a
// /v1/model request and a model-mode sweep of the same family share one
// set.
type modelKey struct {
	ov     *overlay.Overlay
	mem    cache.Latencies
	fu     uarch.PoolLatencies
	warmup uint64
	insts  int
}

// modelSet returns the model set of (ov, in's latencies, warmup and insts)
// over ov's trace from the server's bounded single-flight memo, building it
// on first use with maxROB as the window ladder it profiles up front. A set
// is safe for concurrent use and its answers are fully determined by its
// key, so every request and sweep point of the family shares one.
func (s *Server) modelSet(ov *overlay.Overlay, in simInputs, maxROB int) (*core.ModelSet, error) {
	k := modelKey{ov: ov, mem: in.cfg.Mem.Lat, fu: in.cfg.FU.Latencies(), warmup: in.warmup, insts: in.insts}
	return s.models.Get(k, func() (*core.ModelSet, error) {
		return core.NewModelSet(ov.Trace, ov, in.cfg, maxROB, in.warmup, in.insts)
	})
}

// modelPoint evaluates the analytic model at cfg: the predicted cycle stack,
// which also carries the model's mean misprediction penalty.
func modelPoint(set *core.ModelSet, cfg uarch.Config) (core.CPIBreakdown, error) {
	m, prof, err := set.For(cfg)
	if err != nil {
		return core.CPIBreakdown{}, err
	}
	return m.PredictCPI(prof)
}

// ---- handlers ----

// handleSimulate admits an asynchronous simulation job: 200 with the queued
// job on success, 429 + Retry-After under overload, 503 while draining.
// Clients poll GET /v1/jobs/{id}.
//
// Submission is idempotent: the job ID is derived from the request's
// canonical content identity, so resubmitting the same simulation joins the
// live job instead of duplicating work — and with a durable store
// configured, an identity whose result is already on disk is answered as a
// born-finished job without touching the queue at all.
func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	var req SimulateRequest
	if err := decodeJSON(w, r, &req); err != nil {
		s.reject(w, http.StatusBadRequest, err, outcomeBadInput)
		return
	}
	in, err := s.resolveSimulate(&req)
	if err != nil {
		s.reject(w, http.StatusBadRequest, err, outcomeBadInput)
		return
	}
	tenant, priority, err := admission(r)
	if err != nil {
		s.reject(w, http.StatusBadRequest, err, outcomeBadInput)
		return
	}
	key := simKey(in)
	id := jobID("j", key)
	if job, ok := s.jobs.get(id); ok && job.Status != JobFailed {
		writeJSON(w, http.StatusOK, job)
		return
	}
	if st := s.opts.Store; st != nil {
		if raw, ok, gerr := st.Get(key); gerr == nil && ok {
			s.metrics.count(outcomeCached)
			writeJSON(w, http.StatusOK, s.jobs.completeCached(id, "simulate", raw))
			return
		}
	}
	job, created := s.jobs.createWithID(id, "simulate")
	if !created {
		writeJSON(w, http.StatusOK, job)
		return
	}
	t := &task{
		name:     job.ID,
		timeout:  in.timeout,
		priority: priority,
		tenant:   tenant,
		run: func(ctx context.Context) error {
			s.jobs.markRunning(job.ID)
			res, err := s.runSimulate(ctx, in)
			if err != nil {
				return err
			}
			raw, err := json.Marshal(res)
			if err != nil {
				return err
			}
			if st := s.opts.Store; st != nil {
				// Best-effort: a failed Put only loses the cache entry, not
				// the freshly computed answer.
				st.Put(key, raw) //nolint:errcheck
			}
			s.jobs.setResult(job.ID, raw)
			return nil
		},
		finish: func(err error, d time.Duration) {
			outcome := classify(err)
			s.metrics.observe(outcome, d)
			msg := ""
			if err != nil {
				msg = err.Error()
			}
			s.jobs.markFinished(job.ID, outcome, msg, d)
		},
	}
	if err := s.submit(w, t); err != nil {
		s.jobs.markFinished(job.ID, outcomeRejected, err.Error(), 0)
		return
	}
	writeJSON(w, http.StatusOK, job)
}

// retryAfter renders the drain-rate-derived Retry-After value for a 429:
// how long the current queue should take to empty at the observed
// completion rate.
func (s *Server) retryAfter() string {
	return fmt.Sprintf("%d", s.metrics.retryAfterSeconds(s.pool.Stats().Queued))
}

// submit admits t, writing the admission-control error response on failure.
func (s *Server) submit(w http.ResponseWriter, t *task) error {
	err := s.pool.Submit(t)
	switch {
	case err == nil:
		return nil
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrTenantQuota):
		w.Header().Set("Retry-After", s.retryAfter())
		s.reject(w, http.StatusTooManyRequests, err, outcomeRejected)
	case errors.Is(err, ErrClosed):
		s.reject(w, http.StatusServiceUnavailable, err, outcomeRejected)
	default:
		s.reject(w, http.StatusInternalServerError, err, outcomeError)
	}
	return err
}

// handleModel answers synchronously: the analytic model is orders of
// magnitude cheaper than simulation, but it still runs on the pool so
// admission control and deadlines apply uniformly.
func (s *Server) handleModel(w http.ResponseWriter, r *http.Request) {
	var req ModelRequest
	if err := decodeJSON(w, r, &req); err != nil {
		s.reject(w, http.StatusBadRequest, err, outcomeBadInput)
		return
	}
	in, err := s.resolveSimulate(&req)
	if err != nil {
		s.reject(w, http.StatusBadRequest, err, outcomeBadInput)
		return
	}
	tenant, priority, err := admission(r)
	if err != nil {
		s.reject(w, http.StatusBadRequest, err, outcomeBadInput)
		return
	}
	var (
		result  *ModelResult
		runErr  error
		outcome string
		done    = make(chan struct{})
	)
	t := &task{
		name:     "model",
		timeout:  in.timeout,
		priority: priority,
		tenant:   tenant,
		run: func(ctx context.Context) error {
			res, err := s.runModel(ctx, in)
			if err != nil {
				return err
			}
			result = res
			return nil
		},
		finish: func(err error, d time.Duration) {
			runErr = err
			outcome = classify(err)
			s.metrics.observe(outcome, d)
			close(done)
		},
	}
	if err := s.submit(w, t); err != nil {
		return
	}
	select {
	case <-done:
	case <-r.Context().Done():
		// Client gave up; the job still runs to completion on the pool.
		return
	}
	if runErr != nil {
		writeJSON(w, statusFor(outcome), errorResponse{Error: runErr.Error()})
		return
	}
	writeJSON(w, http.StatusOK, result)
}

// handleJob reports one job's state.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	job, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "unknown job"})
		return
	}
	writeJSON(w, http.StatusOK, job)
}

// HealthResponse is the GET /healthz (liveness) and GET /readyz (readiness)
// document. Liveness answers 200 whenever the process can serve HTTP at all;
// readiness answers 503 while the daemon is replaying durable job journals
// ("recovering") or draining, so fleet probers route work elsewhere.
type HealthResponse struct {
	Status        string  `json:"status"` // "ok", "recovering", or "draining"
	Version       string  `json:"version"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	QueueDepth    int     `json:"queue_depth"`
	InFlight      int     `json:"inflight"`
	ResumedJobs   int     `json:"resumed_jobs,omitempty"`
}

// health assembles the shared liveness/readiness document.
func (s *Server) health() HealthResponse {
	ps := s.pool.Stats()
	_, _, uptime := s.metrics.snapshot()
	status := "ok"
	switch {
	case !s.ready.Load():
		status = "recovering"
	case ps.Closed:
		status = "draining"
	}
	return HealthResponse{
		Status:        status,
		Version:       s.version,
		UptimeSeconds: uptime,
		QueueDepth:    ps.Queued,
		InFlight:      ps.InFlight,
		ResumedJobs:   int(s.resumedJobs.Load()),
	}
}

// handleHealthz is liveness: 200 as long as the handler runs, whatever the
// recovery or drain state — restarting a recovering daemon would only make
// it recover again.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.health())
}

// handleReadyz is readiness: 503 until journal replay has finished, and 503
// again once draining begins, with the same document either way.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	h := s.health()
	code := http.StatusOK
	if h.Status != "ok" {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, h)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	ps := s.pool.Stats()
	jobs, lat, uptime := s.metrics.snapshot()
	resp := MetricsResponse{
		Version:       s.version,
		UptimeSeconds: uptime,
		QueueDepth:    ps.Queued,
		QueueCapacity: ps.Capacity,
		InFlight:      ps.InFlight,
		Workers:       ps.Workers,
		Tenants:       ps.Tenants,
		Draining:      ps.Closed,
		TrackedJobs:   s.jobs.len(),
		Jobs:          jobs,
		OverlayCache:  cacheMetrics(s.overlays.Counters()),
		ModelCache:    cacheMetrics(s.models.Counters()),
		TraceCache:    cacheMetrics(s.traces.Counters()),
		PeerFill:      s.peerFillMetrics(),
		Latency:       lat,
	}
	if st := s.opts.Store; st != nil {
		sn := st.StatsSnapshot()
		resp.Store = &StoreMetrics{
			Hits:             sn.Hits,
			Misses:           sn.Misses,
			Puts:             sn.Puts,
			Records:          sn.Records,
			RecoveredRecords: sn.RecoveredRecords,
			TruncatedBytes:   sn.TruncatedBytes,
			IndexRebuilt:     sn.IndexRebuilt,
			Ready:            s.ready.Load(),
			ResumedJobs:      int(s.resumedJobs.Load()),
		}
	}
	writeJSON(w, http.StatusOK, resp)
}
