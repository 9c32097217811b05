package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"intervalsim/internal/core"
	"intervalsim/internal/experiments"
	"intervalsim/internal/uarch"
	"intervalsim/internal/workload"
)

// TestBatchDecomposeMatchesDirect pins the distributed-sweep contract: a
// batch point with Decompose returns exactly the numbers cmd/sweep's
// sim-mode row is built from — same simulation, same overlay replay, same
// penalty decomposition.
func TestBatchDecomposeMatchesDirect(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})

	const insts, warmup = 20_000, 4_000
	resp := postJSON(t, ts.URL+"/v1/batch", BatchRequest{
		Benchmark: "gzip",
		Insts:     insts,
		Warmup:    warmup,
		Decompose: true,
		Points: []BatchPointSpec{
			{Seq: 7, Width: 2, Depth: 3, ROB: 64},
			{Seq: 3, Width: 4, Depth: 7, ROB: 128},
		},
	})
	points, trailer := readBatch(t, resp)
	if trailer.OK != 2 || trailer.Failed != 0 || !trailer.Done {
		t.Fatalf("trailer = %+v, want 2 ok", trailer)
	}
	bySeq := map[int]BatchPoint{}
	for _, pt := range points {
		bySeq[pt.Seq] = pt
	}

	wc, _ := workload.SuiteConfig("gzip")
	tr, soa, err := experiments.SharedTrace(wc, insts)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []BatchPointSpec{{7, 2, 3, 64}, {3, 4, 7, 128}} {
		got, ok := bySeq[spec.Seq]
		if !ok {
			t.Fatalf("missing seq %d in %+v", spec.Seq, points)
		}
		cfg := experiments.Point(spec.Width, spec.Depth, spec.ROB)
		res, err := uarch.Run(soa.Reader(), cfg, uarch.Options{
			RecordMispredicts: true,
			RecordLoadLevels:  true,
			WarmupInsts:       warmup,
		})
		if err != nil {
			t.Fatal(err)
		}
		dec, err := core.NewDecomposer(tr, res)
		if err != nil {
			t.Fatal(err)
		}
		m := core.Mean(dec.DecomposeAll())
		if got.IPC != res.IPC() || got.Cycles != res.Cycles {
			t.Errorf("seq %d: ipc/cycles = %v/%d, want %v/%d", spec.Seq, got.IPC, got.Cycles, res.IPC(), res.Cycles)
		}
		if got.AvgPenalty != m.Total || got.PenFrontend != m.Frontend || got.PenDrain != m.BaseILP ||
			got.PenFU != m.FULatency || got.PenShortD != m.ShortDMiss || got.PenLongD != m.LongDMiss {
			t.Errorf("seq %d decomposition = %+v, want %+v", spec.Seq, got, m)
		}
		if got.Path != "soa+overlay" {
			t.Errorf("seq %d path = %q, want soa+overlay", spec.Seq, got.Path)
		}
	}
}

// TestBatchModelMode: model-mode batches carry the analytic cycle stack.
func TestBatchModelMode(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})

	points, trailer := readBatch(t, postJSON(t, ts.URL+"/v1/batch", BatchRequest{
		Benchmark: "gcc",
		Insts:     20_000,
		Mode:      "model",
		Points: []BatchPointSpec{
			{Seq: 0, Width: 4, Depth: 4, ROB: 32},
			{Seq: 1, Width: 4, Depth: 4, ROB: 128},
		},
	}))
	if trailer.OK != 2 || trailer.Mode != "model" {
		t.Fatalf("trailer = %+v", trailer)
	}
	for _, pt := range points {
		if pt.Path != "model" || pt.CPIBase <= 0 || pt.IPC <= 0 {
			t.Errorf("point %+v, want model path with positive cpi_base/ipc", pt)
		}
	}
}

// TestBatchSampledCarriesCI: sampled batch points carry the ratio-estimator
// CPI interval — the CI fields a distributed sampled sweep's CSV is built
// from — and the live packed-trace path with no fallback.
func TestBatchSampledCarriesCI(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})

	points, trailer := readBatch(t, postJSON(t, ts.URL+"/v1/batch", BatchRequest{
		Benchmark:      "gzip",
		Insts:          60_000,
		Warmup:         10_000,
		Mode:           "sampled",
		SampleDetailed: 1_000,
		SampleSkip:     4_000,
		Points: []BatchPointSpec{
			{Seq: 0, Width: 4, Depth: 7, ROB: 128},
			{Seq: 1, Width: 2, Depth: 3, ROB: 64},
		},
	}))
	if trailer.OK != 2 || trailer.Mode != "sampled" {
		t.Fatalf("trailer = %+v", trailer)
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
			t.Errorf("seq %d path/fallback = %q/%q, want a live run with no fallback",
				pt.Seq, pt.Path, pt.Fallback)
		}
		if pt.AvgPenalty != 0 || pt.PenFrontend != 0 {
			t.Errorf("seq %d carries penalty columns in sampled mode: %+v", pt.Seq, pt)
		}
	}
}

// TestBatchValidation: malformed batches are rejected up front.
func TestBatchValidation(t *testing.T) {
	_, ts := newTestServer(t, Options{})

	cases := []struct {
		name string
		body string
	}{
		{"no points", `{"benchmark":"gzip"}`},
		{"bad knobs", `{"benchmark":"gzip","points":[{"seq":0,"width":0,"depth":3,"rob":64}]}`},
		{"decompose model", `{"benchmark":"gzip","mode":"model","decompose":true,"points":[{"seq":0,"width":2,"depth":3,"rob":64}]}`},
		{"decompose sampled", `{"benchmark":"gzip","mode":"sampled","decompose":true,"sample_detailed":1000,"sample_skip":4000,"points":[{"seq":0,"width":2,"depth":3,"rob":64}]}`},
		{"bad mode", `{"benchmark":"gzip","mode":"oracular","points":[{"seq":0,"width":2,"depth":3,"rob":64}]}`},
		{"sampled without phases", `{"benchmark":"gzip","mode":"sampled","points":[{"seq":0,"width":2,"depth":3,"rob":64}]}`},
		{"unknown benchmark", `{"benchmark":"doom","points":[{"seq":0,"width":2,"depth":3,"rob":64}]}`},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
	}
}

// TestBatchFailSoftPoint: a point that times out yields an error line while
// the rest of the batch completes — the daemon never aborts a shard for one
// bad point.
func TestBatchFailSoftPoint(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})

	points, trailer := readBatch(t, postJSON(t, ts.URL+"/v1/batch", BatchRequest{
		Benchmark: "mcf",
		Insts:     5_000_000,
		TimeoutMS: 1, // far below the work
		Points:    []BatchPointSpec{{Seq: 0, Width: 4, Depth: 7, ROB: 128}},
	}))
	if trailer.Failed != 1 || trailer.OK != 0 {
		t.Fatalf("trailer = %+v, want 1 failed", trailer)
	}
	if len(points) != 1 || points[0].Error == "" || points[0].Outcome != outcomeTimeout {
		t.Fatalf("points = %+v, want one timeout error line", points)
	}
}

// TestRetryAfterDrainDerived pins the Retry-After contract: a 429 carries a
// parseable positive integer, and once the daemon has observed completions
// the value reflects the measured drain rate rather than a constant.
func TestRetryAfterDrainDerived(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 1})

	// Warm the drain-rate estimator with a few completed jobs.
	for i := 0; i < 3; i++ {
		job := decodeBody[JobView](t, postJSON(t, ts.URL+"/v1/simulate", SimulateRequest{
			Benchmark: "gzip", Insts: 2000,
		}))
		pollJob(t, ts.URL, job.ID)
	}

	// Occupy the worker and the queue slot with slow jobs, then overflow.
	slow := SimulateRequest{Benchmark: "mcf", Insts: 2_000_000}
	first := decodeBody[JobView](t, postJSON(t, ts.URL+"/v1/simulate", slow))
	deadline := time.Now().Add(30 * time.Second)
	for {
		job := decodeBody[JobView](t, mustGet(t, ts.URL+"/v1/jobs/"+first.ID))
		if job.Status == JobRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Distinct identities, so idempotent submission doesn't join the first.
	slow2, slow3 := slow, slow
	slow2.Warmup, slow3.Warmup = 1, 2
	second := postJSON(t, ts.URL+"/v1/simulate", slow2)
	second.Body.Close()

	third := postJSON(t, ts.URL+"/v1/simulate", slow3)
	third.Body.Close()
	if third.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", third.StatusCode)
	}
	ra := third.Header.Get("Retry-After")
	secs, err := strconv.Atoi(ra)
	if err != nil {
		t.Fatalf("Retry-After %q not parseable: %v", ra, err)
	}
	if secs < 1 || secs > 60 {
		t.Fatalf("Retry-After = %d, want within [1, 60]", secs)
	}
	// The estimator itself must agree with what the header reported at
	// that queue depth: the derivation is live, not a constant.
	if got := s.metrics.retryAfterSeconds(1); got < 1 || got > 60 {
		t.Fatalf("retryAfterSeconds(1) = %d, want within [1, 60]", got)
	}
}

// TestSweepClientDisconnectFreesWorkers is the satellite regression test: a
// dropped sweep connection must cancel queued and running points so the
// worker slots free up promptly for other clients.
func TestSweepClientDisconnectFreesWorkers(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 64})

	// A sweep big enough to outlive the client: many heavy points through
	// one worker.
	raw, _ := json.Marshal(SweepRequest{
		Benchmark: "mcf",
		Insts:     4_000_000,
		Widths:    []int{2, 4, 8},
		Depths:    []int{3, 7, 11},
		ROBs:      []int{64, 128, 256},
	})
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/sweep", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Read the status header, then hang up mid-stream.
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep status = %d", resp.StatusCode)
	}
	time.Sleep(50 * time.Millisecond) // let points queue up behind the worker
	cancel()
	resp.Body.Close()

	// The pool must drain to idle: the running point sees its context
	// canceled and queued points are skipped without executing.
	deadline := time.Now().Add(30 * time.Second)
	for {
		ps := s.pool.Stats()
		if ps.Queued == 0 && ps.InFlight == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pool still busy after disconnect: %+v", ps)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// And the freed worker must serve new clients promptly.
	start := time.Now()
	job := decodeBody[JobView](t, postJSON(t, ts.URL+"/v1/simulate", SimulateRequest{
		Benchmark: "gzip", Insts: 2000,
	}))
	done := pollJob(t, ts.URL, job.ID)
	if done.Status != JobDone {
		t.Fatalf("post-disconnect job = %+v", done)
	}
	if d := time.Since(start); d > 20*time.Second {
		t.Fatalf("post-disconnect job took %v, worker slot not freed", d)
	}
}
