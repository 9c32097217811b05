// Package service implements intervalsimd's simulation-as-a-service layer:
// an HTTP JSON API over the interval-analysis substrate. Requests name a
// workload (a built-in suite benchmark or an inline generator config) and a
// machine (baseline knob overrides or a full configuration); the service
// runs them on a bounded worker pool and shares the expensive intermediate
// artifacts — packed trace.SoA traces, their miss-event overlays and their
// analytic model sets — across all requests through one single-flight
// trace cache whose entries hold each trace with what is derived from it,
// so a thousand config-sweep queries over one workload pay for one trace
// generation and one speculation pre-pass.
//
// Production posture: admission control (a full queue rejects with 429 +
// Retry-After instead of buffering unboundedly), per-request deadlines wired
// into the simulator's context-cancellation watchdog, panic containment via
// the harness, graceful drain on shutdown, streaming NDJSON for sweeps, and
// an observability surface (/healthz, /metrics) with cache counters and
// request-latency quantiles.
package service

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"intervalsim/internal/bpred"
	"intervalsim/internal/experiments"
	"intervalsim/internal/uarch"
	"intervalsim/internal/vpred"
	"intervalsim/internal/workload"
)

// errBadRequest marks client errors: invalid JSON, unknown benchmarks,
// out-of-range sizes. Handlers map it to HTTP 400 and metrics count it
// under the bad_input outcome.
var errBadRequest = errors.New("service: bad request")

// MachineSpec selects the simulated machine: either knob overrides applied
// to the baseline design point (width/depth/rob, the axes every sweep in
// the repository uses, built by experiments.Point so a point means the same
// processor here and in cmd/sweep), or a complete uarch.Config for full
// control. Zero knobs inherit the baseline values. Pred swaps the branch
// predictor for a named preset (bpred.Preset: "tage", "2bc-gskew",
// "gshare", ...) on top of the knob axes; a full Config instead carries its
// predictor inline, so the two are mutually exclusive.
type MachineSpec struct {
	Width int    `json:"width,omitempty"`
	Depth int    `json:"depth,omitempty"`
	ROB   int    `json:"rob,omitempty"`
	Pred  string `json:"pred,omitempty"`
	// VPred enables value prediction with a named preset (vpred.Preset:
	// "last-value", "stride", "fcm"); the predictor's value stream is
	// resolved from the workload at admission. FetchRate in (0,1) enables
	// variable-rate fetch throttling on low branch confidence; 0 and 1 both
	// mean the classic full-rate frontend. Like Pred, both are knob-path
	// options and mutually exclusive with a full Config.
	VPred     string        `json:"vpred,omitempty"`
	FetchRate float64       `json:"fetchrate,omitempty"`
	Config    *uarch.Config `json:"config,omitempty"`
}

// resolvePred validates a predictor preset name at admission time, before
// any machine is built: an unknown name is a client error (HTTP 400), never
// a worker-side failure.
func resolvePred(name string) (uarch.PredictorSpec, error) {
	preset, ok := bpred.Preset(name)
	if !ok {
		return uarch.PredictorSpec{}, fmt.Errorf("%w: unknown predictor kind %q (want one of %s)",
			errBadRequest, name, strings.Join(bpred.PresetNames(), ", "))
	}
	return preset, nil
}

// resolveVPred validates a value-predictor preset name at admission time,
// mirroring resolvePred: an unknown name is a client error (HTTP 400), never
// a worker-side failure. The returned config carries a zero Stream; the
// caller fills it from the resolved workload.
func resolveVPred(name string) (vpred.Config, error) {
	preset, ok := vpred.Preset(name)
	if !ok {
		return vpred.Config{}, fmt.Errorf("%w: unknown value predictor kind %q (want one of %s)",
			errBadRequest, name, strings.Join(vpred.PresetNames(), ", "))
	}
	return preset, nil
}

// resolve builds and validates the concrete configuration.
func (m MachineSpec) resolve() (uarch.Config, error) {
	if m.Config != nil {
		if m.Width != 0 || m.Depth != 0 || m.ROB != 0 {
			return uarch.Config{}, fmt.Errorf("%w: give either knob overrides or a full config, not both", errBadRequest)
		}
		if m.Pred != "" {
			return uarch.Config{}, fmt.Errorf("%w: give either pred or a full config (which carries its own predictor), not both", errBadRequest)
		}
		if m.VPred != "" || m.FetchRate != 0 {
			return uarch.Config{}, fmt.Errorf("%w: give either vpred/fetchrate or a full config (which carries both fields), not both", errBadRequest)
		}
		cfg := *m.Config
		if cfg.Name == "" {
			cfg.Name = "custom"
		}
		// Bounds first: Validate builds the predictor.
		if err := checkBounds(configBounds(&cfg)); err != nil {
			return uarch.Config{}, err
		}
		if err := cfg.Validate(); err != nil {
			return uarch.Config{}, fmt.Errorf("%w: %v", errBadRequest, err)
		}
		return cfg, nil
	}
	if err := checkBounds(knobBounds("machine.", m.Width, m.Depth, m.ROB)); err != nil {
		return uarch.Config{}, err
	}
	base := uarch.Baseline()
	w, d, r := m.Width, m.Depth, m.ROB
	if w == 0 {
		w = base.DispatchWidth
	}
	if d == 0 {
		d = base.FrontendDepth
	}
	if r == 0 {
		r = base.ROBSize
	}
	cfg := experiments.Point(w, d, r)
	if m.Pred != "" {
		preset, err := resolvePred(m.Pred)
		if err != nil {
			return uarch.Config{}, err
		}
		cfg.Pred = preset
	}
	if m.VPred != "" {
		preset, err := resolveVPred(m.VPred)
		if err != nil {
			return uarch.Config{}, err
		}
		cfg.VPred = &preset
	}
	if m.FetchRate != 0 {
		if m.FetchRate < 0 || m.FetchRate > 1 {
			return uarch.Config{}, fmt.Errorf("%w: fetchrate %v outside (0, 1]", errBadRequest, m.FetchRate)
		}
		cfg.FetchRate = m.FetchRate
	}
	if err := cfg.Validate(); err != nil {
		return uarch.Config{}, fmt.Errorf("%w: %v", errBadRequest, err)
	}
	return cfg, nil
}

// SimulateRequest asks for one cycle-level simulation. Exactly one of
// Benchmark (a suite name) or Workload (an inline generator config) selects
// the program.
type SimulateRequest struct {
	Benchmark string           `json:"benchmark,omitempty"`
	Workload  *workload.Config `json:"workload,omitempty"`
	Insts     int              `json:"insts,omitempty"`  // default 1,000,000
	Warmup    uint64           `json:"warmup,omitempty"` // instructions excluded from statistics
	Machine   MachineSpec      `json:"machine"`
	TimeoutMS int              `json:"timeout_ms,omitempty"` // per-job deadline override
}

// ModelRequest asks the analytic interval model for the same point — no
// cycle-level simulation, answered synchronously.
type ModelRequest = SimulateRequest

// simInputs is a fully resolved, validated request.
type simInputs struct {
	wc      workload.Config
	cfg     uarch.Config
	insts   int
	warmup  uint64
	timeout time.Duration
}

// resolveSimulate validates req against the server's limits.
func (s *Server) resolveSimulate(req *SimulateRequest) (simInputs, error) {
	var in simInputs
	switch {
	case req.Benchmark != "" && req.Workload != nil:
		return in, fmt.Errorf("%w: give exactly one of benchmark or workload", errBadRequest)
	case req.Benchmark != "":
		wc, ok := workload.SuiteConfig(req.Benchmark)
		if !ok {
			return in, fmt.Errorf("%w: unknown benchmark %q", errBadRequest, req.Benchmark)
		}
		in.wc = wc
	case req.Workload != nil:
		if err := checkBounds(workloadBounds(req.Workload)); err != nil {
			return in, err
		}
		if err := req.Workload.Validate(); err != nil {
			return in, fmt.Errorf("%w: %v", errBadRequest, err)
		}
		in.wc = *req.Workload
	default:
		return in, fmt.Errorf("%w: give one of benchmark or workload", errBadRequest)
	}

	in.insts = req.Insts
	if in.insts == 0 {
		in.insts = 1_000_000
	}
	if in.insts < 1000 || in.insts > maxInsts {
		return in, fmt.Errorf("%w: insts %d outside [1000, %d]", errBadRequest, in.insts, maxInsts)
	}
	in.warmup = req.Warmup
	if in.warmup >= uint64(in.insts) {
		return in, fmt.Errorf("%w: warmup %d >= insts %d", errBadRequest, in.warmup, in.insts)
	}

	cfg, err := req.Machine.resolve()
	if err != nil {
		return in, err
	}
	// A value predictor's stream is a property of the workload; presets (and
	// full configs that leave Stream zero) pick it up from the resolved
	// workload here, exactly as cmd/sweep and the experiments do.
	if cfg.VPred != nil && cfg.VPred.Stream == (vpred.StreamConfig{}) {
		vp := *cfg.VPred
		vp.Stream = in.wc.ValueStream()
		cfg.VPred = &vp
	}
	in.cfg = cfg

	if req.TimeoutMS < 0 {
		return in, fmt.Errorf("%w: negative timeout_ms", errBadRequest)
	}
	in.timeout = s.opts.DefaultTimeout
	if req.TimeoutMS > 0 {
		in.timeout = time.Duration(req.TimeoutMS) * time.Millisecond
		if in.timeout > maxTimeout {
			in.timeout = maxTimeout
		}
	}
	return in, nil
}

// SimulateResult is the JSON result of one cycle-level run: the aggregate
// statistics a characterization client consumes, plus the simulator path
// provenance so a silently degraded fast path is visible remotely too.
type SimulateResult struct {
	Benchmark string `json:"benchmark"`
	Machine   string `json:"machine"`

	Insts  uint64  `json:"insts"`
	Cycles uint64  `json:"cycles"`
	IPC    float64 `json:"ipc"`
	CPI    float64 `json:"cpi"`

	Mispredicts  uint64  `json:"mispredicts"`
	BranchMPKI   float64 `json:"branch_mpki"`
	ICacheMisses uint64  `json:"icache_misses"`
	ShortDMisses uint64  `json:"shortd_misses"`
	LongDMisses  uint64  `json:"longd_misses"`

	AvgMispredictPenalty float64 `json:"avg_mispredict_penalty"`

	Path     string `json:"path"`
	Fallback string `json:"fallback,omitempty"`
}

// newSimulateResult aggregates a uarch result into the API shape.
func newSimulateResult(in simInputs, res *uarch.Result) *SimulateResult {
	out := &SimulateResult{
		Benchmark:            in.wc.Name,
		Machine:              in.cfg.Name,
		Insts:                res.Insts,
		Cycles:               res.Cycles,
		IPC:                  res.IPC(),
		CPI:                  res.CPI(),
		Mispredicts:          res.Mispredicts,
		ICacheMisses:         res.ICacheMisses,
		ShortDMisses:         res.ShortDMisses,
		LongDMisses:          res.LongDMisses,
		AvgMispredictPenalty: res.AvgMispredictPenalty(),
		Path:                 res.Path,
		Fallback:             res.Fallback,
	}
	if res.Insts > 0 {
		out.BranchMPKI = float64(res.Mispredicts) / float64(res.Insts) * 1000
	}
	return out
}

// ModelResult is the analytic model's answer: the interval-analysis cycle
// stack and the predicted misprediction penalty, computed from the shared
// overlay with no cycle-level simulation.
type ModelResult struct {
	Benchmark string `json:"benchmark"`
	Machine   string `json:"machine"`

	Insts uint64  `json:"insts"`
	IPC   float64 `json:"ipc"`
	CPI   float64 `json:"cpi"`

	CPIBase     float64 `json:"cpi_base"`
	CPIBpred    float64 `json:"cpi_bpred"`
	CPIICache   float64 `json:"cpi_icache"`
	CPILongData float64 `json:"cpi_longd"`
	// CPIVMisspec is the value-misspeculation flush term, present only when
	// the machine value-predicts (omitempty keeps classic responses stable).
	CPIVMisspec float64 `json:"cpi_vmisspec,omitempty"`

	AvgMispredictPenalty float64 `json:"avg_mispredict_penalty"`
}

// SweepRequest asks for a grid of design points over one workload, streamed
// back as NDJSON (one SweepPoint per line, a SweepTrailer last). Empty axes
// default to DefaultAxes, cmd/sweep's grid.
type SweepRequest struct {
	Benchmark string           `json:"benchmark,omitempty"`
	Workload  *workload.Config `json:"workload,omitempty"`
	Insts     int              `json:"insts,omitempty"`
	Warmup    uint64           `json:"warmup,omitempty"`
	Widths    []int            `json:"widths,omitempty"`
	Depths    []int            `json:"depths,omitempty"`
	ROBs      []int            `json:"robs,omitempty"`
	Pred      string           `json:"pred,omitempty"` // predictor preset for every point (default: baseline tournament)
	// VPred/FetchRate apply value prediction and variable-rate fetch to every
	// point, as in MachineSpec. Unknown presets and out-of-range rates are
	// rejected at admission.
	VPred     string  `json:"vpred,omitempty"`
	FetchRate float64 `json:"fetchrate,omitempty"`
	Mode      string  `json:"mode,omitempty"` // "sim" (default), "sampled", or "model"
	// SampleDetailed/SampleSkip are the systematic-sampling phase lengths
	// (sampled mode only; both must be positive). Warmup becomes the initial
	// functional skip of a sampled sweep.
	SampleDetailed uint64 `json:"sample_detailed,omitempty"`
	SampleSkip     uint64 `json:"sample_skip,omitempty"`
	TimeoutMS      int    `json:"timeout_ms,omitempty"` // per design point
}

// SweepPoint is one NDJSON line of a sweep stream, emitted in completion
// order (Seq is the point's index in canonical grid order). Failed points
// carry Error and Outcome instead of measurements.
type SweepPoint struct {
	Seq   int `json:"seq"`
	Width int `json:"width"`
	Depth int `json:"depth"`
	ROB   int `json:"rob"`

	IPC                  float64 `json:"ipc,omitempty"`
	AvgMispredictPenalty float64 `json:"avg_mispredict_penalty,omitempty"`
	Cycles               uint64  `json:"cycles,omitempty"`
	CPIBase              float64 `json:"cpi_base,omitempty"`
	CPIBpred             float64 `json:"cpi_bpred,omitempty"`
	CPIICache            float64 `json:"cpi_icache,omitempty"`
	CPILongData          float64 `json:"cpi_longd,omitempty"`
	CPIVMisspec          float64 `json:"cpi_vmisspec,omitempty"`

	// Sampled-mode confidence interval: the ratio-estimator CPI over the
	// measurement units with its Student-t bounds (see uarch.SampleStats).
	CPI         float64 `json:"cpi,omitempty"`
	CPILo       float64 `json:"cpi_lo,omitempty"`
	CPIHi       float64 `json:"cpi_hi,omitempty"`
	CPIRelErr   float64 `json:"cpi_rel_err,omitempty"`
	SampleUnits int     `json:"sample_units,omitempty"`

	Path     string `json:"path,omitempty"`
	Fallback string `json:"fallback,omitempty"`

	Error   string `json:"error,omitempty"`
	Outcome string `json:"outcome,omitempty"`
}

// SweepTrailer is the final NDJSON line of a sweep stream.
type SweepTrailer struct {
	Done    bool   `json:"done"`
	Points  int    `json:"points"`
	OK      int    `json:"ok"`
	Failed  int    `json:"failed"`
	Mode    string `json:"mode"`
	Elapsed string `json:"elapsed"`
}
