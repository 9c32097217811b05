package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"intervalsim/internal/experiments"
	"intervalsim/internal/uarch"
	"intervalsim/internal/workload"
)

// newTestServer boots a Server behind httptest and registers a draining
// cleanup, so every test exercises the real HTTP surface.
func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s := New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	})
	return s, ts
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	return resp
}

func decodeBody[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return v
}

// pollJob polls GET /v1/jobs/{id} until the job reaches a terminal state.
func pollJob(t *testing.T, baseURL, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(baseURL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatalf("GET job: %v", err)
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			t.Fatalf("GET job: status %d", resp.StatusCode)
		}
		job := decodeBody[JobView](t, resp)
		if job.Status == JobDone || job.Status == JobFailed {
			return job
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return JobView{}
}

// TestSimulateEndToEnd is the headline acceptance test: submit, poll, and
// check the result matches a direct in-process simulation bit for bit.
func TestSimulateEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})

	const insts = 50_000
	req := SimulateRequest{
		Benchmark: "gzip",
		Insts:     insts,
		Machine:   MachineSpec{Width: 4, Depth: 5, ROB: 64},
	}
	resp := postJSON(t, ts.URL+"/v1/simulate", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	job := decodeBody[JobView](t, resp)
	if job.ID == "" || job.Status != JobQueued {
		t.Fatalf("submit returned %+v, want queued job with ID", job)
	}

	done := pollJob(t, ts.URL, job.ID)
	if done.Status != JobDone || done.Outcome != outcomeOK {
		t.Fatalf("job finished %+v, want done/ok", done)
	}
	var got SimulateResult
	if err := json.Unmarshal(done.Result, &got); err != nil {
		t.Fatalf("unmarshal result: %v", err)
	}

	// Direct reference run: same trace, same config, live simulation with
	// no overlay. The service's overlay replay must be indistinguishable.
	wc, ok := workload.SuiteConfig("gzip")
	if !ok {
		t.Fatal("gzip missing from suite")
	}
	_, soa, err := experiments.SharedTrace(wc, insts)
	if err != nil {
		t.Fatalf("SharedTrace: %v", err)
	}
	cfg := experiments.Point(4, 5, 64)
	want, err := uarch.Run(soa.Reader(), cfg, uarch.Options{RecordMispredicts: true})
	if err != nil {
		t.Fatalf("direct run: %v", err)
	}

	if got.Cycles != want.Cycles || got.Insts != want.Insts {
		t.Errorf("cycles/insts = %d/%d, want %d/%d", got.Cycles, got.Insts, want.Cycles, want.Insts)
	}
	if got.Mispredicts != want.Mispredicts {
		t.Errorf("mispredicts = %d, want %d", got.Mispredicts, want.Mispredicts)
	}
	if got.ICacheMisses != want.ICacheMisses || got.LongDMisses != want.LongDMisses || got.ShortDMisses != want.ShortDMisses {
		t.Errorf("miss counts = %d/%d/%d, want %d/%d/%d",
			got.ICacheMisses, got.ShortDMisses, got.LongDMisses,
			want.ICacheMisses, want.ShortDMisses, want.LongDMisses)
	}
	if got.IPC != want.IPC() || got.AvgMispredictPenalty != want.AvgMispredictPenalty() {
		t.Errorf("ipc/penalty = %v/%v, want %v/%v", got.IPC, got.AvgMispredictPenalty, want.IPC(), want.AvgMispredictPenalty())
	}
	if got.Path != "soa+overlay" {
		t.Errorf("path = %q, want soa+overlay (service must be replaying the shared overlay)", got.Path)
	}
	if got.Benchmark != "gzip" {
		t.Errorf("benchmark = %q", got.Benchmark)
	}
}

// TestModelEndpoint: the synchronous analytic-model endpoint returns a
// plausible cycle stack.
func TestModelEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})

	resp := postJSON(t, ts.URL+"/v1/model", ModelRequest{
		Benchmark: "vpr",
		Insts:     50_000,
		Machine:   MachineSpec{ROB: 64},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("model: status %d", resp.StatusCode)
	}
	got := decodeBody[ModelResult](t, resp)
	if got.CPI <= 0 || got.IPC <= 0 {
		t.Fatalf("model CPI/IPC = %v/%v, want positive", got.CPI, got.IPC)
	}
	if got.CPIBase <= 0 {
		t.Errorf("cpi_base = %v, want positive", got.CPIBase)
	}
	if got.AvgMispredictPenalty <= 0 {
		t.Errorf("avg penalty = %v, want positive", got.AvgMispredictPenalty)
	}
	sum := got.CPIBase + got.CPIBpred + got.CPIICache + got.CPILongData
	if diff := sum - got.CPI; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("cycle stack %v does not sum to CPI %v", sum, got.CPI)
	}
}

// TestBadRequests: validation failures are 400s with a JSON error, and are
// counted under the bad_input outcome.
func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Options{})

	cases := []struct {
		name string
		body string
	}{
		{"empty", `{}`},
		{"unknown benchmark", `{"benchmark":"doom"}`},
		{"both sources", `{"benchmark":"gzip","workload":{"name":"x"}}`},
		{"unknown field", `{"benchmark":"gzip","bogus":1}`},
		{"insts too small", `{"benchmark":"gzip","insts":10}`},
		{"warmup >= insts", `{"benchmark":"gzip","insts":2000,"warmup":2000}`},
		{"negative timeout", `{"benchmark":"gzip","timeout_ms":-5}`},
		{"knobs and config", `{"benchmark":"gzip","machine":{"width":2,"config":{}}}`},
		{"malformed json", `{`},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/v1/simulate", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		body := decodeBody[errorResponse](t, resp)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", tc.name, resp.StatusCode, body.Error)
		}
		if body.Error == "" {
			t.Errorf("%s: empty error body", tc.name)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/j99999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", resp.StatusCode)
	}

	m := decodeBody[MetricsResponse](t, mustGet(t, ts.URL+"/metrics"))
	if m.Jobs[outcomeBadInput] != uint64(len(cases)) {
		t.Errorf("bad_input count = %d, want %d", m.Jobs[outcomeBadInput], len(cases))
	}
}

func mustGet(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	return resp
}

// TestOverload429: with one worker and a queue of one, a third concurrent
// job is rejected with 429 + Retry-After — the admission-control contract.
func TestOverload429(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 1})

	slow := SimulateRequest{Benchmark: "mcf", Insts: 2_000_000}
	first := decodeBody[JobView](t, postJSON(t, ts.URL+"/v1/simulate", slow))

	// Wait until the first job occupies the worker, so the queue slot is
	// provably free for the second.
	deadline := time.Now().Add(30 * time.Second)
	for {
		job := decodeBody[JobView](t, mustGet(t, ts.URL+"/v1/jobs/"+first.ID))
		if job.Status == JobRunning {
			break
		}
		if job.Status != JobQueued {
			t.Fatalf("first job reached %s before running", job.Status)
		}
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Distinct identities: resubmitting the same body would idempotently
	// join the first job instead of consuming admission slots.
	slow2, slow3 := slow, slow
	slow2.Warmup, slow3.Warmup = 1, 2
	second := postJSON(t, ts.URL+"/v1/simulate", slow2)
	second.Body.Close()
	if second.StatusCode != http.StatusOK {
		t.Fatalf("second submit: status %d, want 200 (queued)", second.StatusCode)
	}

	third := postJSON(t, ts.URL+"/v1/simulate", slow3)
	if third.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third submit: status %d, want 429", third.StatusCode)
	}
	if third.Header.Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After")
	}
	third.Body.Close()

	// A sweep must also be turned away before committing to a stream.
	sweep := postJSON(t, ts.URL+"/v1/sweep", SweepRequest{Benchmark: "mcf", Insts: 2000})
	sweep.Body.Close()
	if sweep.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("sweep under overload: status %d, want 429", sweep.StatusCode)
	}

	m := decodeBody[MetricsResponse](t, mustGet(t, ts.URL+"/metrics"))
	if m.Jobs[outcomeRejected] < 2 {
		t.Errorf("rejected count = %d, want >= 2", m.Jobs[outcomeRejected])
	}
}

// readStream consumes an NDJSON sweep or batch stream: points of type P,
// then the trailer.
func readStream[P any](t *testing.T, resp *http.Response) ([]P, SweepTrailer) {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream: content-type %q", ct)
	}
	var (
		points  []P
		trailer SweepTrailer
	)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		// The trailer is the only line with "done".
		if bytes.Contains(line, []byte(`"done"`)) {
			if err := json.Unmarshal(line, &trailer); err != nil {
				t.Fatalf("trailer: %v", err)
			}
			continue
		}
		var pt P
		if err := json.Unmarshal(line, &pt); err != nil {
			t.Fatalf("point: %v", err)
		}
		points = append(points, pt)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("scan: %v", err)
	}
	return points, trailer
}

func readSweep(t *testing.T, resp *http.Response) ([]SweepPoint, SweepTrailer) {
	t.Helper()
	return readStream[SweepPoint](t, resp)
}

func readBatch(t *testing.T, resp *http.Response) ([]BatchPoint, BatchTrailer) {
	t.Helper()
	return readStream[BatchPoint](t, resp)
}

// TestSweepStreamAndOverlayReuse: a sweep streams every grid point plus a
// trailer; an identical second sweep is served from the shared caches, which
// /metrics must show as overlay hits.
func TestSweepStreamAndOverlayReuse(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})

	req := SweepRequest{
		Benchmark: "twolf",
		Insts:     20_000,
		Widths:    []int{2, 4},
		Depths:    []int{4},
		ROBs:      []int{32, 64},
	}
	points, trailer := readSweep(t, postJSON(t, ts.URL+"/v1/sweep", req))
	if len(points) != 4 {
		t.Fatalf("got %d points, want 4", len(points))
	}
	if !trailer.Done || trailer.Points != 4 || trailer.OK != 4 || trailer.Failed != 0 {
		t.Fatalf("trailer = %+v, want done 4/4 ok", trailer)
	}
	seen := make(map[int]SweepPoint)
	for _, pt := range points {
		if pt.Error != "" {
			t.Errorf("point %d failed: %s", pt.Seq, pt.Error)
		}
		if pt.IPC <= 0 {
			t.Errorf("point %d: IPC = %v", pt.Seq, pt.IPC)
		}
		seen[pt.Seq] = pt
	}
	for seq := 0; seq < 4; seq++ {
		if _, ok := seen[seq]; !ok {
			t.Errorf("missing seq %d", seq)
		}
	}
	// Canonical order: widths × depths × robs; seq 1 is width 2, rob 64.
	if pt := seen[1]; pt.Width != 2 || pt.Depth != 4 || pt.ROB != 64 {
		t.Errorf("seq 1 = %d/%d/%d, want 2/4/64", pt.Width, pt.Depth, pt.ROB)
	}

	// Identical sweep again: same trace, same overlay — pure cache hits.
	_, trailer2 := readSweep(t, postJSON(t, ts.URL+"/v1/sweep", req))
	if trailer2.OK != 4 {
		t.Fatalf("second sweep trailer = %+v", trailer2)
	}
	m := decodeBody[MetricsResponse](t, mustGet(t, ts.URL+"/metrics"))
	if m.OverlayCache.Hits == 0 {
		t.Errorf("overlay cache hits = 0 after identical sweep, want > 0 (misses %d)", m.OverlayCache.Misses)
	}
	if m.TraceCache.Hits == 0 {
		t.Errorf("trace cache hits = 0 after identical sweep, want > 0")
	}
	if m.Jobs[outcomeOK] < 8 {
		t.Errorf("ok jobs = %d, want >= 8", m.Jobs[outcomeOK])
	}
	if m.Latency.Count < 8 {
		t.Errorf("latency count = %d, want >= 8", m.Latency.Count)
	}
}

// TestSweepModelMode: the analytic model serves the same grid without
// cycle-level simulation.
func TestSweepModelMode(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})

	points, trailer := readSweep(t, postJSON(t, ts.URL+"/v1/sweep", SweepRequest{
		Benchmark: "gcc",
		Insts:     20_000,
		Widths:    []int{4},
		Depths:    []int{4},
		ROBs:      []int{32, 64, 128},
		Mode:      "model",
	}))
	if trailer.OK != 3 || trailer.Mode != "model" {
		t.Fatalf("trailer = %+v, want 3 ok in model mode", trailer)
	}
	for _, pt := range points {
		if pt.Path != "model" {
			t.Errorf("seq %d path = %q, want model", pt.Seq, pt.Path)
		}
		if pt.CPIBase <= 0 || pt.IPC <= 0 {
			t.Errorf("seq %d: cpi_base/ipc = %v/%v, want positive", pt.Seq, pt.CPIBase, pt.IPC)
		}
	}
}

// TestSweepSampledMode: a sampled sweep streams the ratio-estimator CPI
// interval per point, never computes an overlay, and rejects requests
// without the sampling phase lengths.
func TestSweepSampledMode(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})

	points, trailer := readSweep(t, postJSON(t, ts.URL+"/v1/sweep", SweepRequest{
		Benchmark:      "vpr",
		Insts:          60_000,
		Warmup:         10_000,
		Widths:         []int{2, 4},
		Depths:         []int{4},
		ROBs:           []int{64},
		Mode:           "sampled",
		SampleDetailed: 1_000,
		SampleSkip:     4_000,
	}))
	if trailer.OK != 2 || trailer.Mode != "sampled" {
		t.Fatalf("trailer = %+v, want 2 ok in sampled mode", trailer)
	}
	for _, pt := range points {
		if !(pt.CPILo <= pt.CPI && pt.CPI <= pt.CPIHi) || pt.CPI <= 0 {
			t.Errorf("seq %d interval out of order: %+v", pt.Seq, pt)
		}
		// (60000-10000)/(1000+4000) periods, ±1 for the trailing partial unit.
		if pt.SampleUnits < 10 || pt.SampleUnits > 11 {
			t.Errorf("seq %d units = %d, want about 10", pt.Seq, pt.SampleUnits)
		}
		if pt.Path != "soa" || pt.Fallback != "" {
			t.Errorf("seq %d path/fallback = %q/%q, want a live run with no fallback", pt.Seq, pt.Path, pt.Fallback)
		}
	}
	m := decodeBody[MetricsResponse](t, mustGet(t, ts.URL+"/metrics"))
	if m.OverlayCache.Hits+m.OverlayCache.Misses != 0 {
		t.Errorf("sampled sweep touched the overlay cache: %+v", m.OverlayCache)
	}

	for name, body := range map[string]SweepRequest{
		"sampled without phases": {Benchmark: "vpr", Insts: 60_000, Mode: "sampled"},
		"unknown mode":           {Benchmark: "vpr", Insts: 60_000, Mode: "oracular"},
	} {
		resp := postJSON(t, ts.URL+"/v1/sweep", body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
}

// TestSweepKeySamplingIdentity pins the store-fingerprint compatibility
// contract: sim/model sweep identities carry no sampling fields (their key
// bytes — and so their stored results — are unchanged by this feature), and
// sampled sweeps with different phase lengths are distinct identities.
func TestSweepKeySamplingIdentity(t *testing.T) {
	s := New(Options{})
	defer s.Shutdown(context.Background()) //nolint:errcheck

	resolve := func(req SweepRequest) sweepInputs {
		in, err := s.resolveSweep(&req)
		if err != nil {
			t.Fatal(err)
		}
		return in
	}
	base := SweepRequest{Benchmark: "gzip", Insts: 20_000, Widths: []int{2}, Depths: []int{4}, ROBs: []int{64}}
	simKeyBytes := sweepKey(resolve(base))
	if bytes.Contains(simKeyBytes, []byte("sample_detailed")) {
		t.Errorf("sim sweep key carries sampling fields (old store entries would miss): %s", simKeyBytes)
	}

	sampled := base
	sampled.Mode, sampled.SampleDetailed, sampled.SampleSkip = "sampled", 1_000, 4_000
	k1 := sweepKey(resolve(sampled))
	sampled.SampleSkip = 9_000
	k2 := sweepKey(resolve(sampled))
	if bytes.Equal(k1, k2) {
		t.Error("sampled sweeps with different phase lengths share an identity")
	}
	if !bytes.Contains(k1, []byte(`"sample_detailed":1000`)) {
		t.Errorf("sampled key missing phase lengths: %s", k1)
	}
}

// TestBuildSweepCSVSampled: the durable sweep-job artifact renders the CI
// columns with fixed verbs in seq order.
func TestBuildSweepCSVSampled(t *testing.T) {
	got := string(buildSweepCSV("sampled", map[int]SweepPoint{
		1: {Seq: 1, Width: 4, Depth: 7, ROB: 128, IPC: 1.5, CPI: 0.66667, CPILo: 0.6, CPIHi: 0.73334, CPIRelErr: 0.1, SampleUnits: 10},
		0: {Seq: 0, Width: 2, Depth: 3, ROB: 64, IPC: 1.25, CPI: 0.8, CPILo: 0.75, CPIHi: 0.85, CPIRelErr: 0.0625, SampleUnits: 10},
	}))
	want := "seq,width,depth,rob,ipc,cpi,cpi_lo,cpi_hi,cpi_rel_err,units\n" +
		"0,2,3,64,1.250,0.8000,0.7500,0.8500,0.0625,10\n" +
		"1,4,7,128,1.500,0.6667,0.6000,0.7333,0.1000,10\n"
	if got != want {
		t.Errorf("sampled CSV:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestHealthz: liveness, version, and drain reporting.
func TestHealthz(t *testing.T) {
	s, ts := newTestServer(t, Options{})

	h := decodeBody[HealthResponse](t, mustGet(t, ts.URL+"/healthz"))
	if h.Status != "ok" {
		t.Fatalf("status = %q, want ok", h.Status)
	}
	if h.Version == "" {
		t.Error("healthz version empty")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	h = decodeBody[HealthResponse](t, mustGet(t, ts.URL+"/healthz"))
	if h.Status != "draining" {
		t.Fatalf("status after shutdown = %q, want draining", h.Status)
	}
}

// TestShutdownDrainsInFlight: Shutdown waits for an admitted job, the job's
// result stays pollable, and new submissions get 503.
func TestShutdownDrainsInFlight(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})

	job := decodeBody[JobView](t, postJSON(t, ts.URL+"/v1/simulate", SimulateRequest{
		Benchmark: "parser",
		Insts:     500_000,
	}))

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	// The drain must have completed the job, not dropped or canceled it.
	done := decodeBody[JobView](t, mustGet(t, ts.URL+"/v1/jobs/"+job.ID))
	if done.Status != JobDone || done.Outcome != outcomeOK {
		t.Fatalf("after drain, job = %+v, want done/ok", done)
	}
	if len(done.Result) == 0 {
		t.Fatal("drained job has no result")
	}

	resp := postJSON(t, ts.URL+"/v1/simulate", SimulateRequest{Benchmark: "parser", Insts: 2000})
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit after shutdown: status %d, want 503", resp.StatusCode)
	}
}

// TestJobHistoryEviction: finished jobs are evicted oldest first beyond
// the bound, but the store never loses a live job.
func TestJobHistoryEviction(t *testing.T) {
	js := newJobStore(3)
	live := js.create("simulate")
	var ids []string
	for i := 0; i < 6; i++ {
		j := js.create("simulate")
		js.markRunning(j.ID)
		js.markFinished(j.ID, outcomeOK, "", time.Millisecond)
		ids = append(ids, j.ID)
	}
	if n := js.len(); n != 4 {
		t.Errorf("tracked jobs = %d, want 4 (the live job and 3 finished)", n)
	}
	if _, ok := js.get(live.ID); !ok {
		t.Error("live job evicted")
	}
	for i, id := range ids {
		if _, ok := js.get(id); ok != (i >= 3) {
			t.Errorf("finished job %d of 6 tracked = %v, want %v", i+1, ok, i >= 3)
		}
	}
}

// TestDeadlineOutcome: a job whose deadline is far shorter than the work is
// reported as a timeout, both on the job and in the outcome counters.
func TestDeadlineOutcome(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})

	job := decodeBody[JobView](t, postJSON(t, ts.URL+"/v1/simulate", SimulateRequest{
		Benchmark: "vortex",
		Insts:     10_000_000,
		TimeoutMS: 1,
	}))
	done := pollJob(t, ts.URL, job.ID)
	if done.Status != JobFailed || done.Outcome != outcomeTimeout {
		t.Fatalf("job = %+v, want failed/timeout", done)
	}
	if len(done.Result) != 0 {
		t.Error("timed-out job carries a result")
	}
	m := decodeBody[MetricsResponse](t, mustGet(t, ts.URL+"/metrics"))
	if m.Jobs[outcomeTimeout] == 0 {
		t.Error("timeout outcome not counted")
	}
}

// TestInlineWorkload: an inline generator config works as the program
// source, equivalently to a suite benchmark.
func TestInlineWorkload(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})

	wc, ok := workload.SuiteConfig("gzip")
	if !ok {
		t.Fatal("gzip missing from suite")
	}
	job := decodeBody[JobView](t, postJSON(t, ts.URL+"/v1/simulate", SimulateRequest{
		Workload: &wc,
		Insts:    20_000,
	}))
	done := pollJob(t, ts.URL, job.ID)
	if done.Status != JobDone {
		t.Fatalf("inline workload job = %+v", done)
	}
	var got SimulateResult
	if err := json.Unmarshal(done.Result, &got); err != nil {
		t.Fatal(err)
	}
	if got.Benchmark != "gzip" || got.Cycles == 0 {
		t.Fatalf("result = %+v", got)
	}
}

// TestConcurrentMixedLoad hammers every endpoint at once under -race: the
// shared caches, job store, metrics, and pool must hold up.
func TestConcurrentMixedLoad(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 4, QueueDepth: 64})

	const clients = 8
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		c := c
		go func() {
			bench := []string{"gzip", "mcf"}[c%2]
			job := SimulateRequest{Benchmark: bench, Insts: 10_000}
			raw, _ := json.Marshal(job)
			for i := 0; i < 5; i++ {
				resp, err := http.Post(ts.URL+"/v1/simulate", "application/json", bytes.NewReader(raw))
				if err != nil {
					errs <- err
					return
				}
				var jv JobView
				json.NewDecoder(resp.Body).Decode(&jv)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusTooManyRequests {
					errs <- fmt.Errorf("submit status %d", resp.StatusCode)
					return
				}
				if r, err := http.Get(ts.URL + "/metrics"); err == nil {
					r.Body.Close()
				}
				if jv.ID != "" {
					if r, err := http.Get(ts.URL + "/v1/jobs/" + jv.ID); err == nil {
						r.Body.Close()
					}
				}
			}
			errs <- nil
		}()
	}
	for c := 0; c < clients; c++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}
