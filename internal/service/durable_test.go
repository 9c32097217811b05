package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"testing"
	"time"

	"intervalsim/internal/store"
)

// openTestStore opens a store in a temp dir and closes it with the test.
func openTestStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(store.OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// waitReady polls Server.Ready — recovery runs in the background.
func waitReady(t *testing.T, s *Server) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !s.Ready() {
		if time.Now().After(deadline) {
			t.Fatal("server never became ready")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestIdempotentSimulate: identical requests collapse to one job ID; the
// second submission joins rather than recomputes.
func TestIdempotentSimulate(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	req := SimulateRequest{Benchmark: "gzip", Insts: 5000}

	a := decodeBody[JobView](t, postJSON(t, ts.URL+"/v1/simulate", req))
	b := decodeBody[JobView](t, postJSON(t, ts.URL+"/v1/simulate", req))
	if a.ID != b.ID {
		t.Fatalf("identical requests got different job IDs: %s vs %s", a.ID, b.ID)
	}
	if a.ID == "" || a.ID[0] != 'j' {
		t.Fatalf("job ID %q is not content-hashed", a.ID)
	}
	done := pollJob(t, ts.URL, a.ID)
	if done.Status != JobDone {
		t.Fatalf("job finished %s: %s", done.Status, done.Error)
	}
	// A different identity must get a different job.
	other := req
	other.Warmup = 1
	c := decodeBody[JobView](t, postJSON(t, ts.URL+"/v1/simulate", other))
	if c.ID == a.ID {
		t.Fatal("different identities aliased to one job ID")
	}
}

// TestStoreCachedAcrossRestart: a result computed in one server life is
// served from the durable store in the next — born-finished, no queue.
func TestStoreCachedAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	req := SimulateRequest{Benchmark: "gzip", Insts: 5000}

	st1 := openTestStore(t, dir)
	s1, ts1 := newTestServer(t, Options{Workers: 2, Store: st1})
	waitReady(t, s1)
	first := decodeBody[JobView](t, postJSON(t, ts1.URL+"/v1/simulate", req))
	firstDone := pollJob(t, ts1.URL, first.ID)
	if firstDone.Status != JobDone {
		t.Fatalf("first life: job %s: %s", firstDone.Status, firstDone.Error)
	}
	ts1.Close()
	if err := s1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := openTestStore(t, dir)
	s2, ts2 := newTestServer(t, Options{Workers: 2, Store: st2})
	waitReady(t, s2)
	resp := postJSON(t, ts2.URL+"/v1/simulate", req)
	second := decodeBody[JobView](t, resp)
	if second.Status != JobDone {
		t.Fatalf("second life: status %s, want done (store hit)", second.Status)
	}
	if !bytes.Equal(second.Result, firstDone.Result) {
		t.Fatalf("cached result differs:\n%s\nvs\n%s", second.Result, firstDone.Result)
	}
	m := decodeBody[MetricsResponse](t, mustGet(t, ts2.URL+"/metrics"))
	if m.Store == nil || m.Store.Hits == 0 {
		t.Fatalf("store metrics did not record the hit: %+v", m.Store)
	}
	if m.Jobs[outcomeCached] == 0 {
		t.Fatalf("jobs map missing cached outcome: %v", m.Jobs)
	}
}

// TestPoolPriorityOrder: with the lone worker busy, a high-priority task
// submitted after two low-priority ones runs before them.
func TestPoolPriorityOrder(t *testing.T) {
	p := NewPool(PoolOptions{Workers: 1, QueueDepth: 8})
	defer drainPool(t, p)

	release := make(chan struct{})
	running := make(chan struct{})
	if err := p.Submit(&task{name: "blocker", run: func(ctx context.Context) error {
		close(running)
		<-release
		return nil
	}}); err != nil {
		t.Fatal(err)
	}
	<-running

	var mu sync.Mutex
	var order []string
	var wg sync.WaitGroup
	submit := func(name string, pri int) {
		wg.Add(1)
		err := p.Submit(&task{
			name:     name,
			priority: pri,
			run: func(ctx context.Context) error {
				mu.Lock()
				order = append(order, name)
				mu.Unlock()
				return nil
			},
			finish: func(error, time.Duration) { wg.Done() },
		})
		if err != nil {
			t.Fatalf("Submit %s: %v", name, err)
		}
	}
	submit("low-1", PriorityLow)
	submit("low-2", PriorityLow)
	submit("high", PriorityHigh)
	submit("normal", PriorityNormal)
	close(release)
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	want := []string{"high", "normal", "low-1", "low-2"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("execution order %v, want %v", order, want)
		}
	}
}

// TestPoolTenantQuota: one tenant cannot hold more than its quota of
// admitted jobs; other tenants are unaffected.
func TestPoolTenantQuota(t *testing.T) {
	p := NewPool(PoolOptions{Workers: 1, QueueDepth: 16, TenantQuota: 2})
	defer drainPool(t, p)

	release := make(chan struct{})
	running := make(chan struct{})
	mk := func(tenant string, started chan struct{}) *task {
		return &task{name: tenant, tenant: tenant, run: func(ctx context.Context) error {
			if started != nil {
				close(started)
			}
			<-release
			return nil
		}}
	}
	if err := p.Submit(mk("alice", running)); err != nil {
		t.Fatal(err)
	}
	<-running // alice-1 running (counts against quota)
	if err := p.Submit(mk("alice", nil)); err != nil {
		t.Fatal(err)
	}
	if err := p.Submit(mk("alice", nil)); !errors.Is(err, ErrTenantQuota) {
		t.Fatalf("third alice job = %v, want ErrTenantQuota", err)
	}
	if err := p.Submit(mk("bob", nil)); err != nil {
		t.Fatalf("bob blocked by alice's quota: %v", err)
	}
	if s := p.Stats(); s.Tenants != 2 {
		t.Fatalf("Tenants = %d, want 2", s.Tenants)
	}
	close(release)
}

// TestTenantQuota429: the HTTP surface maps quota exhaustion to 429 with a
// Retry-After hint, keyed by the X-Tenant header.
func TestTenantQuota429(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 16, TenantQuota: 1})

	post := func(tenant string, warmup uint64) *http.Response {
		raw, _ := json.Marshal(SimulateRequest{Benchmark: "mcf", Insts: 2_000_000, Warmup: warmup})
		req, _ := http.NewRequest("POST", ts.URL+"/v1/simulate", bytes.NewReader(raw))
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Tenant", tenant)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	first := post("alice", 0)
	first.Body.Close()
	if first.StatusCode != http.StatusOK {
		t.Fatalf("first: %d", first.StatusCode)
	}
	second := post("alice", 1)
	if second.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit: %d, want 429", second.StatusCode)
	}
	if second.Header.Get("Retry-After") == "" {
		t.Error("quota 429 missing Retry-After")
	}
	second.Body.Close()
	bob := post("bob", 2)
	bob.Body.Close()
	if bob.StatusCode != http.StatusOK {
		t.Fatalf("bob rejected: %d", bob.StatusCode)
	}
}

// TestBadPriorityHeader: an unknown X-Priority is a 400, not a silent
// default, on every endpoint that admits work to the pool.
func TestBadPriorityHeader(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	for path, body := range map[string]any{
		"/v1/simulate": SimulateRequest{Benchmark: "gzip", Insts: 2000},
		"/v1/sweep":    SweepRequest{Benchmark: "gzip", Insts: 2000, Widths: []int{2}, Depths: []int{3}, ROBs: []int{64}},
		"/v1/batch":    BatchRequest{Benchmark: "gzip", Insts: 2000, Points: []BatchPointSpec{{Width: 2, Depth: 3, ROB: 64}}},
	} {
		raw, _ := json.Marshal(body)
		req, _ := http.NewRequest("POST", ts.URL+path, bytes.NewReader(raw))
		req.Header.Set("X-Priority", "urgent")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", path, resp.StatusCode)
		}
	}
}

// TestBatchTenantQuota: batch points count against the X-Tenant that sent
// the batch. While alice's batch holds her one-job quota, her simulate is
// turned away with 429 and bob's is admitted.
func TestBatchTenantQuota(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 16, TenantQuota: 1})

	post := func(ctx context.Context, path, tenant string, body any) *http.Response {
		raw, _ := json.Marshal(body)
		req, _ := http.NewRequestWithContext(ctx, "POST", ts.URL+path, bytes.NewReader(raw))
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Tenant", tenant)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	batch := post(ctx, "/v1/batch", "alice", BatchRequest{
		Benchmark: "mcf", Insts: 4_000_000,
		Points: []BatchPointSpec{{Seq: 0, Width: 4, Depth: 7, ROB: 128}, {Seq: 1, Width: 4, Depth: 7, ROB: 256}},
	})
	defer batch.Body.Close()
	if batch.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d", batch.StatusCode)
	}
	deadline := time.Now().Add(30 * time.Second)
	for s.pool.Stats().InFlight == 0 {
		if time.Now().After(deadline) {
			t.Fatal("batch point never started")
		}
		time.Sleep(2 * time.Millisecond)
	}

	sim := SimulateRequest{Benchmark: "gzip", Insts: 2000}
	alice := post(context.Background(), "/v1/simulate", "alice", sim)
	alice.Body.Close()
	if alice.StatusCode != http.StatusTooManyRequests {
		t.Errorf("alice's simulate during her batch: status %d, want 429", alice.StatusCode)
	}
	bob := post(context.Background(), "/v1/simulate", "bob", sim)
	bob.Body.Close()
	if bob.StatusCode != http.StatusOK {
		t.Errorf("bob's simulate during alice's batch: status %d, want 200", bob.StatusCode)
	}
	cancel() // hang up: the batch's points are canceled, freeing the worker
}

// TestReadyzLifecycle: /readyz is 503 while draining; /healthz stays 200.
func TestReadyzLifecycle(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})
	waitReady(t, s)
	ready := mustGet(t, ts.URL+"/readyz")
	ready.Body.Close()
	if ready.StatusCode != http.StatusOK {
		t.Fatalf("/readyz = %d, want 200", ready.StatusCode)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	drained := mustGet(t, ts.URL+"/readyz")
	doc := decodeBody[HealthResponse](t, drained)
	if drained.StatusCode != http.StatusServiceUnavailable || doc.Status != "draining" {
		t.Fatalf("/readyz after drain = %d %q, want 503 draining", drained.StatusCode, doc.Status)
	}
	alive := mustGet(t, ts.URL+"/healthz")
	alive.Body.Close()
	if alive.StatusCode != http.StatusOK {
		t.Fatalf("/healthz after drain = %d, want 200 (liveness)", alive.StatusCode)
	}
}

// ---- durable sweep jobs ----

// pollSweepJob waits for a sweep job to reach a terminal state.
func pollSweepJob(t *testing.T, baseURL, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp := mustGet(t, baseURL+"/v1/sweepjobs/"+id)
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			t.Fatalf("GET sweep job: status %d", resp.StatusCode)
		}
		job := decodeBody[JobView](t, resp)
		if job.Status == JobDone || job.Status == JobFailed {
			return job
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("sweep job %s did not finish", id)
	return JobView{}
}

var testSweep = SweepRequest{
	Benchmark: "gzip", Insts: 5000,
	Widths: []int{2, 4}, Depths: []int{5}, ROBs: []int{32, 64},
}

// TestSweepJobLifecycle: submit, finish, fetch CSV; resubmission joins; the
// CSV survives into a fresh server life via the store.
func TestSweepJobLifecycle(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir)
	s, ts := newTestServer(t, Options{Workers: 2, Store: st})
	waitReady(t, s)

	resp := postJSON(t, ts.URL+"/v1/sweepjobs", testSweep)
	if resp.StatusCode != http.StatusAccepted {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("submit: status %d: %s", resp.StatusCode, body)
	}
	job := decodeBody[JobView](t, resp)
	if job.ID == "" || job.ID[0] != 's' {
		t.Fatalf("sweep job ID %q is not content-hashed", job.ID)
	}
	done := pollSweepJob(t, ts.URL, job.ID)
	if done.Status != JobDone {
		t.Fatalf("sweep job %s: %s", done.Status, done.Error)
	}
	var res SweepJobResult
	if err := json.Unmarshal(done.Result, &res); err != nil || res.Points != 4 {
		t.Fatalf("result %s (err %v), want 4 points", done.Result, err)
	}

	csvResp := mustGet(t, ts.URL+"/v1/sweepjobs/"+job.ID+"/csv")
	csv, _ := io.ReadAll(csvResp.Body)
	csvResp.Body.Close()
	if csvResp.StatusCode != http.StatusOK || !bytes.HasPrefix(csv, []byte("seq,width,depth,rob")) {
		t.Fatalf("csv: status %d body %q", csvResp.StatusCode, csv)
	}
	if n := bytes.Count(csv, []byte("\n")); n != 5 {
		t.Fatalf("csv has %d lines, want header + 4 rows:\n%s", n, csv)
	}

	// Re-submission joins idempotently (200, same ID, already done).
	again := postJSON(t, ts.URL+"/v1/sweepjobs", testSweep)
	joined := decodeBody[JobView](t, again)
	if again.StatusCode != http.StatusOK || joined.ID != job.ID {
		t.Fatalf("resubmit: status %d id %s, want 200 %s", again.StatusCode, joined.ID, job.ID)
	}

	// The journal must be retired after completion.
	ids, err := st.Journals()
	if err != nil || len(ids) != 0 {
		t.Fatalf("journals after done: %v %v", ids, err)
	}
}

// TestSweepJobResume is the crash-resume contract: journal a Begin plus a
// subset of committed points (as a SIGKILLed daemon would leave behind),
// then boot a server on that store and require it to resume the job, finish
// the remainder, and produce the identical CSV an uninterrupted run yields.
func TestSweepJobResume(t *testing.T) {
	// Uninterrupted reference run.
	refDir := t.TempDir()
	refStore := openTestStore(t, refDir)
	sRef, tsRef := newTestServer(t, Options{Workers: 2, Store: refStore})
	waitReady(t, sRef)
	refJob := decodeBody[JobView](t, postJSON(t, tsRef.URL+"/v1/sweepjobs", testSweep))
	if pollSweepJob(t, tsRef.URL, refJob.ID).Status != JobDone {
		t.Fatal("reference sweep failed")
	}
	refCSVResp := mustGet(t, tsRef.URL+"/v1/sweepjobs/"+refJob.ID+"/csv")
	refCSV, _ := io.ReadAll(refCSVResp.Body)
	refCSVResp.Body.Close()

	// Interrupted run: fabricate the post-SIGKILL state — a journal with
	// Begin and two of the four points committed, no Done.
	dir := t.TempDir()
	prep := openTestStore(t, dir)
	in, err := (&Server{opts: Options{}.withDefaults()}).resolveSweep(&testSweep)
	if err != nil {
		t.Fatal(err)
	}
	id := jobID("s", sweepKey(in))
	if id != refJob.ID {
		t.Fatalf("identity mismatch: %s vs %s", id, refJob.ID)
	}
	j, _, _, err := prep.OpenJournal(id)
	if err != nil {
		t.Fatal(err)
	}
	spec := sweepJobSpec{
		Benchmark: testSweep.Benchmark, Insts: in.insts,
		Widths: in.widths, Depths: in.depths, ROBs: in.robs, Mode: in.mode,
	}
	if _, err := j.Append(store.JournalBegin, mustJSON(spec)); err != nil {
		t.Fatal(err)
	}
	// Commit points 0 and 2 from the reference run's rows so resumed output
	// can only be byte-identical if resume skips them and computes 1 and 3.
	for _, line := range refRows(t, refCSV) {
		if line.Seq == 0 || line.Seq == 2 {
			if _, err := j.Append(store.JournalPoint, mustJSON(line)); err != nil {
				t.Fatal(err)
			}
		}
	}
	j.Close()
	prep.Close()

	st := openTestStore(t, dir)
	s, ts := newTestServer(t, Options{Workers: 2, Store: st})
	waitReady(t, s)
	if n := s.resumedJobs.Load(); n != 1 {
		t.Fatalf("resumed %d jobs, want 1", n)
	}
	done := pollSweepJob(t, ts.URL, id)
	if done.Status != JobDone {
		t.Fatalf("resumed job %s: %s", done.Status, done.Error)
	}
	csvResp := mustGet(t, ts.URL+"/v1/sweepjobs/"+id+"/csv")
	csv, _ := io.ReadAll(csvResp.Body)
	csvResp.Body.Close()
	if !bytes.Equal(csv, refCSV) {
		t.Fatalf("resumed CSV differs from uninterrupted run:\n--- resumed\n%s--- reference\n%s", csv, refCSV)
	}
}

// refRows reconstructs SweepPoint rows from a reference CSV (sim mode).
func refRows(t *testing.T, csv []byte) []SweepPoint {
	t.Helper()
	var rows []SweepPoint
	lines := bytes.Split(bytes.TrimSpace(csv), []byte("\n"))
	for _, ln := range lines[1:] {
		var pt SweepPoint
		n, err := fmt.Sscanf(string(ln), "%d,%d,%d,%d,%f,%f,%d",
			&pt.Seq, &pt.Width, &pt.Depth, &pt.ROB, &pt.IPC, &pt.AvgMispredictPenalty, &pt.Cycles)
		if err != nil || n != 7 {
			t.Fatalf("parse CSV row %q: %v", ln, err)
		}
		rows = append(rows, pt)
	}
	return rows
}

// TestSweepJobDropsStaleJournal: a journal whose ID is not the identity its
// spec resolves to today — here a model-mode or sampled-mode job journaled
// under the key before model_v or sampled_v existed — is dropped on
// recovery, not resumed, so no CSV mixes rows of two engine versions.
// Resubmitting the spec starts a fresh job under the current identity.
func TestSweepJobDropsStaleJournal(t *testing.T) {
	for _, mode := range []string{"model", "sampled"} {
		t.Run(mode, func(t *testing.T) { checkDropsStaleJournal(t, mode) })
	}
}

// checkDropsStaleJournal runs TestSweepJobDropsStaleJournal in one mode.
func checkDropsStaleJournal(t *testing.T, mode string) {
	req := testSweep
	req.Mode = mode
	if mode == "sampled" {
		req.SampleDetailed, req.SampleSkip = 500, 1_500
	}
	in, err := (&Server{opts: Options{}.withDefaults()}).resolveSweep(&req)
	if err != nil {
		t.Fatal(err)
	}
	key := sweepKey(in)
	version := map[string]string{"model": `,"model_v":1`, "sampled": `,"sampled_v":1`}[mode]
	oldKey := bytes.Replace(key, []byte(version), nil, 1)
	if bytes.Equal(oldKey, key) {
		t.Fatalf("%s-mode key has no %s: %s", mode, version, key)
	}
	oldID := jobID("s", oldKey)

	dir := t.TempDir()
	prep := openTestStore(t, dir)
	j, _, _, err := prep.OpenJournal(oldID)
	if err != nil {
		t.Fatal(err)
	}
	spec := sweepJobSpec{
		Benchmark: req.Benchmark, Insts: in.insts,
		Widths: in.widths, Depths: in.depths, ROBs: in.robs, Mode: in.mode,
		SampleDetailed: in.sampleDetailed, SampleSkip: in.sampleSkip,
	}
	if _, err := j.Append(store.JournalBegin, mustJSON(spec)); err != nil {
		t.Fatal(err)
	}
	old := SweepPoint{Seq: 0, Width: 2, Depth: 5, ROB: 32, IPC: 1, AvgMispredictPenalty: 10}
	if _, err := j.Append(store.JournalPoint, mustJSON(old)); err != nil {
		t.Fatal(err)
	}
	j.Close()
	prep.Close()

	st := openTestStore(t, dir)
	s, ts := newTestServer(t, Options{Workers: 2, Store: st})
	waitReady(t, s)
	if n := s.resumedJobs.Load(); n != 0 {
		t.Fatalf("resumed %d jobs, want the stale journal dropped", n)
	}
	if ids, err := st.Journals(); err != nil || len(ids) != 0 {
		t.Fatalf("journals after recovery: %v (%v), want none", ids, err)
	}
	resp := mustGet(t, ts.URL+"/v1/sweepjobs/"+oldID)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("stale job %s: status %d, want 404", oldID, resp.StatusCode)
	}

	job := decodeBody[JobView](t, postJSON(t, ts.URL+"/v1/sweepjobs", req))
	if job.ID != jobID("s", key) {
		t.Fatalf("resubmitted job ID %s, want %s", job.ID, jobID("s", key))
	}
	if done := pollSweepJob(t, ts.URL, job.ID); done.Status != JobDone {
		t.Fatalf("resubmitted job %s: %s", done.Status, done.Error)
	}
}
