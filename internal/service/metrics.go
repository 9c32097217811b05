package service

import (
	"context"
	"errors"
	"math"
	"sync"
	"time"

	"intervalsim/internal/core"
	"intervalsim/internal/harness"
	"intervalsim/internal/stats"
	"intervalsim/internal/uarch"
)

// Outcome labels for jobs-by-outcome accounting. Every finished job (and
// every rejected request) increments exactly one.
const (
	outcomeOK       = "ok"
	outcomeTimeout  = "timeout"
	outcomeCanceled = "canceled"
	outcomeBadInput = "bad_input"
	outcomeRejected = "rejected" // admission control turned the request away
	outcomeCached   = "cached"   // answered wholly from the durable result store
	outcomeError    = "error"
)

// classify maps a job error to its outcome label, seeing through the
// harness's structured wrappers.
func classify(err error) string {
	switch {
	case err == nil:
		return outcomeOK
	case errors.Is(err, harness.ErrTimeout), errors.Is(err, context.DeadlineExceeded), errors.Is(err, uarch.ErrWatchdog):
		return outcomeTimeout
	case errors.Is(err, context.Canceled), errors.Is(err, uarch.ErrCanceled), errors.Is(err, harness.ErrNotRun):
		return outcomeCanceled
	case errors.Is(err, errBadRequest), errors.Is(err, uarch.ErrBadConfig), errors.Is(err, core.ErrBadInput):
		return outcomeBadInput
	default:
		return outcomeError
	}
}

// metrics aggregates the daemon's observability counters: jobs by outcome
// and request-latency quantiles over a sliding window (stats.Sample). Cache
// counters are read live from the caches at snapshot time, not duplicated
// here.
type metrics struct {
	started time.Time

	mu       sync.Mutex
	outcomes map[string]uint64
	latency  *stats.Sample // job execution latency, milliseconds
	drain    *stats.Rate   // job completions, for Retry-After hints
}

func newMetrics() *metrics {
	return &metrics{
		started:  time.Now(),
		outcomes: make(map[string]uint64),
		latency:  stats.NewSample(2048),
		drain:    stats.NewRate(30*time.Second, 512),
	}
}

// observe records one executed job: its outcome plus its latency. Every
// executed job — success or failure — frees a queue slot, so each one is a
// drain event for the Retry-After estimate.
func (m *metrics) observe(outcome string, d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.outcomes[outcome]++
	m.latency.Add(float64(d) / float64(time.Millisecond))
	m.drain.Add(time.Now())
}

// retryAfterSeconds estimates how long a rejected client should wait before
// the queue has plausibly drained: queued-jobs-plus-one over the observed
// completion rate, clamped to [1, 60] seconds. With no rate evidence yet
// (cold daemon) it falls back to 1 second, the previous constant.
func (m *metrics) retryAfterSeconds(queued int) int {
	m.mu.Lock()
	rate := m.drain.PerSecond(time.Now())
	m.mu.Unlock()
	if rate <= 0 {
		return 1
	}
	secs := int(math.Ceil(float64(queued+1) / rate))
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return secs
}

// count records an outcome with no execution latency: admission rejections
// and request-validation failures, which never ran and would only distort
// the latency quantiles.
func (m *metrics) count(outcome string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.outcomes[outcome]++
}

// CacheMetrics is the JSON shape of one memo cache's counters.
type CacheMetrics struct {
	Hits      uint64  `json:"hits"`
	Misses    uint64  `json:"misses"`
	Evictions uint64  `json:"evictions"`
	Entries   int     `json:"entries"`
	HitRate   float64 `json:"hit_rate"`
}

func cacheMetrics(s harness.MemoStats) CacheMetrics {
	return CacheMetrics{
		Hits:      s.Hits,
		Misses:    s.Misses,
		Evictions: s.Evictions,
		Entries:   s.Entries,
		HitRate:   s.HitRate(),
	}
}

// LatencyMetrics summarizes job execution latency over the sliding window.
type LatencyMetrics struct {
	Count uint64  `json:"count"` // jobs ever observed (not the window size)
	P50MS float64 `json:"p50_ms"`
	P90MS float64 `json:"p90_ms"`
	P99MS float64 `json:"p99_ms"`
	MaxMS float64 `json:"max_ms"` // max within the window
}

// StoreMetrics is the durable result store's observability slice of
// /metrics: live hit/miss/put counters plus the recovery provenance of the
// last Open (how many records replayed, how many torn bytes were truncated,
// whether the sidecar index had to be rebuilt) and the journal-resume state.
type StoreMetrics struct {
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
	Puts    uint64 `json:"puts"`
	Records int    `json:"records"`

	RecoveredRecords int   `json:"recovered_records"`
	TruncatedBytes   int64 `json:"truncated_bytes"`
	IndexRebuilt     bool  `json:"index_rebuilt"`

	Ready       bool `json:"ready"`        // journal replay finished
	ResumedJobs int  `json:"resumed_jobs"` // incomplete sweep jobs resumed at startup
}

// MetricsResponse is the full GET /metrics document.
type MetricsResponse struct {
	Version       string  `json:"version"`
	UptimeSeconds float64 `json:"uptime_seconds"`

	QueueDepth    int  `json:"queue_depth"`
	QueueCapacity int  `json:"queue_capacity"`
	InFlight      int  `json:"inflight"`
	Workers       int  `json:"workers"`
	Tenants       int  `json:"tenants"` // tenants with admitted jobs
	Draining      bool `json:"draining"`
	TrackedJobs   int  `json:"tracked_jobs"`

	Jobs map[string]uint64 `json:"jobs"`

	OverlayCache CacheMetrics    `json:"overlay_cache"`
	TraceCache   CacheMetrics    `json:"trace_cache"`
	ModelCache   CacheMetrics    `json:"model_cache"` // analytic model sets
	PeerFill     PeerFillMetrics `json:"peer_fill"`
	Store        *StoreMetrics   `json:"store,omitempty"` // nil without -store

	Latency LatencyMetrics `json:"latency"`
}

// snapshot assembles the /metrics document from the live sources.
func (m *metrics) snapshot() (jobs map[string]uint64, lat LatencyMetrics, uptime float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	jobs = make(map[string]uint64, len(m.outcomes))
	for k, v := range m.outcomes {
		jobs[k] = v
	}
	qs := m.latency.Quantiles(0.5, 0.9, 0.99)
	lat = LatencyMetrics{
		Count: m.latency.Count(),
		P50MS: qs[0],
		P90MS: qs[1],
		P99MS: qs[2],
		MaxMS: m.latency.Max(),
	}
	return jobs, lat, time.Since(m.started).Seconds()
}
