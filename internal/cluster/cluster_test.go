package cluster

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"intervalsim/internal/core"
	"intervalsim/internal/experiments"
	"intervalsim/internal/service"
	"intervalsim/internal/uarch"
	"intervalsim/internal/workload"
)

// bootDaemon starts an in-process intervalsimd behind httptest, optionally
// wrapping its handler (fault injection), with draining cleanup.
func bootDaemon(t *testing.T, opts service.Options, wrap func(http.Handler) http.Handler) *httptest.Server {
	t.Helper()
	s := service.New(opts)
	h := s.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		s.Shutdown(ctx) //nolint:errcheck // fault-injected daemons may be mid-kill
	})
	return ts
}

// referenceCSV computes what single-process cmd/sweep would print for the
// grid: same simulation, same decomposition, same format verbs. The
// distributed sweep must match it byte for byte.
func referenceCSV(t *testing.T, bench string, widths, depths, robs []int, insts int, warmup uint64) string {
	t.Helper()
	wc, ok := workload.SuiteConfig(bench)
	if !ok {
		t.Fatalf("unknown benchmark %q", bench)
	}
	art, err := experiments.DefaultTraceCache.SharedVia(wc, insts, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr, soa := art.Trace, art.SoA
	base := uarch.Baseline()
	ov, err := art.Overlay(base.Pred, base.Mem, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString(strings.Join(simHeaders, ",") + "\n")
	for _, w := range widths {
		for _, d := range depths {
			for _, r := range robs {
				cfg := experiments.Point(w, d, r)
				res, err := uarch.Run(soa.Reader(), cfg, uarch.Options{
					RecordMispredicts: true,
					RecordLoadLevels:  true,
					WarmupInsts:       warmup,
					Overlay:           ov,
				})
				if err != nil {
					t.Fatal(err)
				}
				dec, err := core.NewDecomposer(tr, res)
				if err != nil {
					t.Fatal(err)
				}
				m := core.Mean(dec.DecomposeAll())
				fmt.Fprintf(&b, "%d,%d,%d,%.3f,%.2f,%.2f,%.2f,%.2f,%.2f,%.2f\n",
					cfg.DispatchWidth, cfg.FrontendDepth, cfg.ROBSize,
					res.IPC(), m.Total, m.Frontend, m.BaseILP, m.FULatency, m.ShortDMiss, m.LongDMiss)
			}
		}
	}
	return b.String()
}

// TestRunMatchesSingleProcess is the core acceptance gate: a sweep sharded
// over two daemons merges to exactly the bytes cmd/sweep would emit.
func TestRunMatchesSingleProcess(t *testing.T) {
	a := bootDaemon(t, service.Options{Workers: 2}, nil)
	b := bootDaemon(t, service.Options{Workers: 2}, nil)

	widths, depths, robs := []int{2, 4}, []int{3}, []int{64, 128}
	const insts, warmup = 20_000, 4_000

	var buf bytes.Buffer
	sink := NewCSVSink(&buf, "sim", false)
	rs, err := Run(context.Background(), Options{
		Endpoints:  []string{a.URL, b.URL},
		Benches:    []string{"gzip"},
		Widths:     widths,
		Depths:     depths,
		ROBs:       robs,
		Insts:      insts,
		Warmup:     warmup,
		BatchSize:  1,
		StealAfter: -1, // pure scheduling, no steals
		KeepGoing:  true,
		Logf:       t.Logf,
	}, sink.Emit)
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Finish(); err != nil {
		t.Fatal(err)
	}
	if rs.OK != 4 || rs.Failed != 0 || rs.Stolen != 0 {
		t.Fatalf("stats = %+v, want 4 ok", rs)
	}

	want := referenceCSV(t, "gzip", widths, depths, robs, insts, warmup)
	if got := buf.String(); got != want {
		t.Errorf("distributed CSV differs from single-process reference:\ngot:\n%swant:\n%s", got, want)
	}

	// Both nodes contributed and the fleet summary renders their stats.
	points := 0
	for _, n := range rs.Nodes {
		points += n.Points
	}
	if points != 4 {
		t.Fatalf("node points sum to %d, want 4", points)
	}
	var sum strings.Builder
	rs.FprintSummary(&sum)
	if !strings.Contains(sum.String(), "4 points (4 ok, 0 failed)") {
		t.Errorf("summary missing totals:\n%s", sum.String())
	}
}

// killWriter aborts the response (dropping the TCP connection) the moment
// the kill switch flips, emulating a daemon dying mid-stream.
type killWriter struct {
	w    http.ResponseWriter
	dead *atomic.Bool
}

func (kw *killWriter) Header() http.Header { return kw.w.Header() }

func (kw *killWriter) WriteHeader(code int) {
	if kw.dead.Load() {
		panic(http.ErrAbortHandler)
	}
	kw.w.WriteHeader(code)
}

func (kw *killWriter) Write(b []byte) (int, error) {
	if kw.dead.Load() {
		panic(http.ErrAbortHandler)
	}
	return kw.w.Write(b)
}

func (kw *killWriter) Flush() {
	if kw.dead.Load() {
		panic(http.ErrAbortHandler)
	}
	if f, ok := kw.w.(http.Flusher); ok {
		f.Flush()
	}
}

// TestRunSurvivesKilledDaemon kills one of two daemons shortly after it
// starts serving batches. The sweep must complete with output byte-identical
// to the single-process reference: the dead node's shards are re-dispatched
// and any points it already streamed are deduplicated, not duplicated.
func TestRunSurvivesKilledDaemon(t *testing.T) {
	var dead atomic.Bool
	var sawBatch atomic.Bool
	a := bootDaemon(t, service.Options{Workers: 2}, nil)
	b := bootDaemon(t, service.Options{Workers: 2}, func(inner http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if dead.Load() {
				panic(http.ErrAbortHandler)
			}
			if r.URL.Path == "/v1/batch" && sawBatch.CompareAndSwap(false, true) {
				// Die mid-sweep: shortly after the first shard arrives.
				go func() {
					time.Sleep(10 * time.Millisecond)
					dead.Store(true)
				}()
			}
			inner.ServeHTTP(&killWriter{w: w, dead: &dead}, r)
		})
	})

	widths, depths, robs := []int{2, 4, 8}, []int{3}, []int{64, 128, 256}
	const insts, warmup = 10_000, 2_000

	var buf bytes.Buffer
	sink := NewCSVSink(&buf, "sim", false)
	rs, err := Run(context.Background(), Options{
		Endpoints:  []string{a.URL, b.URL},
		Benches:    []string{"gzip"},
		Widths:     widths,
		Depths:     depths,
		ROBs:       robs,
		Insts:      insts,
		Warmup:     warmup,
		BatchSize:  1,
		Retries:    1,
		StealAfter: 100 * time.Millisecond,
		KeepGoing:  true,
		Logf:       t.Logf,
	}, sink.Emit)
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Finish(); err != nil {
		t.Fatal(err)
	}
	if !sawBatch.Load() {
		t.Fatal("victim daemon never received a batch; kill scenario did not happen")
	}
	if rs.OK != 9 || rs.Failed != 0 {
		t.Fatalf("stats = %+v, want 9 ok", rs)
	}

	want := referenceCSV(t, "gzip", widths, depths, robs, insts, warmup)
	if got := buf.String(); got != want {
		t.Errorf("CSV after killing a daemon differs from reference:\ngot:\n%swant:\n%s", got, want)
	}
}

// TestRunStealsFromSlowNode races the work-stealing commit path for real:
// one daemon buffers each batch response and sits on it for 400ms, so the
// fast node steals its in-flight shards, and the slow copies complete later
// and lose at the merger. With -race this is the end-to-end exactly-once
// gate; the output must still match the single-process reference exactly.
func TestRunStealsFromSlowNode(t *testing.T) {
	a := bootDaemon(t, service.Options{Workers: 2}, nil)
	b := bootDaemon(t, service.Options{Workers: 2}, func(inner http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/v1/batch" {
				inner.ServeHTTP(w, r)
				return
			}
			// Compute now, deliver late: the whole response lands after the
			// steal window, long after the thief committed the same points.
			rec := httptest.NewRecorder()
			inner.ServeHTTP(rec, r)
			time.Sleep(400 * time.Millisecond)
			for k, vs := range rec.Header() {
				for _, v := range vs {
					w.Header().Add(k, v)
				}
			}
			w.WriteHeader(rec.Code)
			w.Write(rec.Body.Bytes()) //nolint:errcheck
		})
	})

	widths, depths, robs := []int{2, 4, 8}, []int{3}, []int{64, 128}
	const insts, warmup = 10_000, 2_000

	var buf bytes.Buffer
	sink := NewCSVSink(&buf, "sim", false)
	rs, err := Run(context.Background(), Options{
		Endpoints:  []string{a.URL, b.URL},
		Benches:    []string{"gzip"},
		Widths:     widths,
		Depths:     depths,
		ROBs:       robs,
		Insts:      insts,
		Warmup:     warmup,
		BatchSize:  1,
		StealAfter: 50 * time.Millisecond,
		KeepGoing:  true,
		Logf:       t.Logf,
	}, sink.Emit)
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Finish(); err != nil {
		t.Fatal(err)
	}
	if rs.OK != 6 || rs.Failed != 0 {
		t.Fatalf("stats = %+v, want 6 ok", rs)
	}
	if rs.Stolen == 0 {
		t.Error("no steals despite a 400ms-delayed node and a 50ms steal age")
	}

	want := referenceCSV(t, "gzip", widths, depths, robs, insts, warmup)
	if got := buf.String(); got != want {
		t.Errorf("CSV under work stealing differs from reference:\ngot:\n%swant:\n%s", got, want)
	}
}

// TestRunFailSoftPoints: per-point failures (here: timeouts) are fail-soft
// with -keep-going — every completable row is still merged, the failures are
// counted, and Run reports an error at the end rather than aborting.
func TestRunFailSoftPoints(t *testing.T) {
	a := bootDaemon(t, service.Options{Workers: 2}, nil)

	run := func(keepGoing bool) (*RunStats, error) {
		return Run(context.Background(), Options{
			Endpoints:    []string{a.URL},
			Benches:      []string{"mcf"},
			Widths:       []int{2, 4},
			Depths:       []int{3},
			ROBs:         []int{64},
			Insts:        2_000_000,
			Warmup:       1_000,
			PointTimeout: time.Millisecond, // far below the work
			BatchSize:    1,
			StealAfter:   -1,
			KeepGoing:    keepGoing,
			Logf:         t.Logf,
		}, func(*Row) error { return nil })
	}

	rs, err := run(true)
	if err == nil || !strings.Contains(err.Error(), "design points failed") {
		t.Fatalf("keep-going error = %v, want design-points-failed", err)
	}
	if rs.Failed != 2 || rs.OK != 0 {
		t.Fatalf("stats = %+v, want 2 failed", rs)
	}

	_, err = run(false)
	if err == nil {
		t.Fatal("fail-fast run returned nil error")
	}
}

// TestRunZeroPointTimeoutUsesDaemonDefault pins what PointTimeout 0 means:
// the coordinator sends no deadline, so the daemon's own default applies.
// Against a daemon whose default is 1ms every 100K-instruction point times
// out; an explicit minute lets the same sweep finish.
func TestRunZeroPointTimeoutUsesDaemonDefault(t *testing.T) {
	a := bootDaemon(t, service.Options{Workers: 2, DefaultTimeout: time.Millisecond}, nil)

	run := func(timeout time.Duration) (*RunStats, []Row, error) {
		var rows []Row
		rs, err := Run(context.Background(), Options{
			Endpoints:    []string{a.URL},
			Benches:      []string{"gzip"},
			Widths:       []int{2, 4},
			Depths:       []int{3},
			ROBs:         []int{64},
			Insts:        100_000,
			Warmup:       1_000,
			PointTimeout: timeout,
			BatchSize:    1,
			StealAfter:   -1,
			KeepGoing:    true,
			Logf:         t.Logf,
		}, func(r *Row) error {
			rows = append(rows, *r)
			return nil
		})
		return rs, rows, err
	}

	rs, rows, err := run(0)
	if err == nil || rs.OK != 0 || rs.Failed != 2 || len(rows) != 2 {
		t.Fatalf("PointTimeout 0: stats = %+v, %d rows, err = %v; want every point failed under the daemon's 1ms default", rs, len(rows), err)
	}
	for _, r := range rows {
		if r.Point.Outcome != "timeout" {
			t.Errorf("PointTimeout 0: point %d outcome %q (%s), want timeout", r.Point.Seq, r.Point.Outcome, r.Point.Error)
		}
	}

	rs, rows, err = run(time.Minute)
	if err != nil || rs.OK != 2 || rs.Failed != 0 || len(rows) != 2 {
		t.Fatalf("PointTimeout 1m: stats = %+v, %d rows, err = %v; want both points ok", rs, len(rows), err)
	}
	for _, r := range rows {
		if r.Point.Error != "" || r.Point.IPC <= 0 {
			t.Errorf("PointTimeout 1m: point %d = %+v", r.Point.Seq, r.Point)
		}
	}
}

// TestRunSubMillisecondPointTimeout: a deadline below one millisecond is
// rounded up to 1ms, not truncated to 0, which would hand every point the
// daemon's default deadline. Against a daemon whose default is a minute,
// every 100K-instruction point must time out under a 500µs deadline.
func TestRunSubMillisecondPointTimeout(t *testing.T) {
	a := bootDaemon(t, service.Options{Workers: 2, DefaultTimeout: time.Minute}, nil)
	var rows []Row
	rs, err := Run(context.Background(), Options{
		Endpoints:    []string{a.URL},
		Benches:      []string{"gzip"},
		Widths:       []int{2, 4},
		Depths:       []int{3},
		ROBs:         []int{64},
		Insts:        100_000,
		Warmup:       1_000,
		PointTimeout: 500 * time.Microsecond,
		BatchSize:    1,
		StealAfter:   -1,
		KeepGoing:    true,
		Logf:         t.Logf,
	}, func(r *Row) error {
		rows = append(rows, *r)
		return nil
	})
	if err == nil || rs.OK != 0 || rs.Failed != 2 || len(rows) != 2 {
		t.Fatalf("PointTimeout 500µs: stats = %+v, %d rows, err = %v; want every point timed out", rs, len(rows), err)
	}
	for _, r := range rows {
		if r.Point.Outcome != "timeout" {
			t.Errorf("PointTimeout 500µs: point %d outcome %q (%s), want timeout", r.Point.Seq, r.Point.Outcome, r.Point.Error)
		}
	}
	for d, want := range map[time.Duration]int{
		0: 0, time.Nanosecond: 1, 500 * time.Microsecond: 1, time.Millisecond: 1,
		time.Millisecond + time.Nanosecond: 2, time.Minute: 60_000,
	} {
		if got := timeoutMS(d); got != want {
			t.Errorf("timeoutMS(%v) = %d, want %d", d, got, want)
		}
	}
}

// TestRunNoHealthyEndpoints: a fleet where nothing answers /healthz is a
// fast configuration error, not a hang.
func TestRunNoHealthyEndpoints(t *testing.T) {
	_, err := Run(context.Background(), Options{
		Endpoints: []string{"127.0.0.1:1"},
		Benches:   []string{"gzip"},
		Widths:    []int{2},
		Depths:    []int{3},
		ROBs:      []int{64},
		Insts:     1000,
	}, func(*Row) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "no healthy endpoints") {
		t.Fatalf("err = %v, want no-healthy-endpoints", err)
	}
}

// TestClientHonors429 pins the pushback contract from the client side: a 429
// with Retry-After delays the resubmit by the advertised seconds instead of
// hammering the daemon.
func TestClientHonors429(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprintln(w, `{"error":"queue full"}`)
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		fmt.Fprintln(w, `{"seq":0,"width":2,"depth":3,"rob":64,"ipc":1.5}`)
		fmt.Fprintln(w, `{"done":true,"points":1,"ok":1,"failed":0,"mode":"sim","elapsed":"1ms"}`)
	}))
	defer ts.Close()

	start := time.Now()
	var pts []service.BatchPoint
	trailer, err := NewClient(ts.URL).Batch(context.Background(), service.BatchRequest{
		Benchmark: "gzip",
		Points:    []service.BatchPointSpec{{Seq: 0, Width: 2, Depth: 3, ROB: 64}},
	}, func(pt service.BatchPoint) { pts = append(pts, pt) })
	if err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("daemon saw %d requests, want 2 (429 then success)", got)
	}
	if d := time.Since(start); d < 700*time.Millisecond {
		t.Fatalf("resubmitted after %v, want ≥ the advertised 1s (within scheduling slack)", d)
	}
	if trailer.OK != 1 || len(pts) != 1 || pts[0].IPC != 1.5 {
		t.Fatalf("trailer %+v points %+v", trailer, pts)
	}
}

// TestClientIncompleteStream: a stream that dies before its trailer is a
// distinct, retryable error — the dispatcher's signal to re-dispatch.
func TestClientIncompleteStream(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		fmt.Fprintln(w, `{"seq":0,"width":2,"depth":3,"rob":64,"ipc":1.5}`)
		// No trailer: connection ends as if the daemon was killed.
	}))
	defer ts.Close()

	_, err := NewClient(ts.URL).Batch(context.Background(), service.BatchRequest{
		Benchmark: "gzip",
		Points:    []service.BatchPointSpec{{Seq: 0, Width: 2, Depth: 3, ROB: 64}},
	}, func(service.BatchPoint) {})
	if err == nil || !strings.Contains(err.Error(), "without trailer") {
		t.Fatalf("err = %v, want incomplete-stream", err)
	}
}

// TestRunModeValidation pins the mode contract at the cluster layer: unknown
// modes and sampled sweeps missing their phase lengths fail before any
// endpoint is contacted.
func TestRunModeValidation(t *testing.T) {
	base := Options{
		Endpoints: []string{"http://127.0.0.1:1"}, // never dialed
		Benches:   []string{"gzip"},
		Widths:    []int{2}, Depths: []int{3}, ROBs: []int{64},
		Insts: 1000,
	}

	bad := base
	bad.Mode = "turbo"
	if _, err := Run(context.Background(), bad, func(*Row) error { return nil }); err == nil ||
		!strings.Contains(err.Error(), `unknown mode "turbo"`) {
		t.Errorf("unknown mode: err = %v", err)
	}

	samp := base
	samp.Mode = "sampled" // SampleDetailed/SampleSkip left zero
	if _, err := Run(context.Background(), samp, func(*Row) error { return nil }); err == nil ||
		!strings.Contains(err.Error(), "needs positive SampleDetailed and SampleSkip") {
		t.Errorf("sampled without phases: err = %v", err)
	}
}
