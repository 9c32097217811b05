package service

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"intervalsim/internal/bpred"
	"intervalsim/internal/experiments"
	"intervalsim/internal/isa"
	"intervalsim/internal/overlay"
	"intervalsim/internal/trace"
	"intervalsim/internal/uarch"
	"intervalsim/internal/vpred"
	"intervalsim/internal/workload"
)

// peerTestPair boots two daemons with private trace caches — so nothing is
// shared through the process-wide memo — where b knows a as its peer.
func peerTestPair(t *testing.T) (a, b *Server) {
	t.Helper()
	a, ts := newTestServer(t, Options{Workers: 2, TraceCache: experiments.NewTraceCache(4)})
	b, _ = newTestServer(t, Options{Workers: 2, TraceCache: experiments.NewTraceCache(4), Peers: []string{ts.URL}})
	return a, b
}

// TestPeerFillEndToEnd: a daemon that warms an artifact serves it to a peer,
// and the peer computes nothing — the fleet-wide exactly-once property.
func TestPeerFillEndToEnd(t *testing.T) {
	a, b := peerTestPair(t)
	wc, ok := workload.SuiteConfig("gzip")
	if !ok {
		t.Fatal("unknown workload gzip")
	}
	const insts = 10_000
	base := uarch.Baseline()

	// Warm A locally: one trace generation, one overlay computation.
	trA, err := a.sharedTrace(wc, insts)
	if err != nil {
		t.Fatal(err)
	}
	ovA, err := a.overlayFor(trA, base.Pred, base.Mem, nil)
	if err != nil {
		t.Fatal(err)
	}

	// B resolves the same artifacts: both must come from A, not local work.
	trB, err := b.sharedTrace(wc, insts)
	if err != nil {
		t.Fatal(err)
	}
	ovB, err := b.overlayFor(trB, base.Pred, base.Mem, nil)
	if err != nil {
		t.Fatal(err)
	}
	soaA, soaB := trA.SoA, trB.SoA
	if soaB == soaA {
		t.Fatal("peers share one SoA pointer; the fill did not cross the wire")
	}
	if !reflect.DeepEqual(soaB.Unpack(), soaA.Unpack()) {
		t.Fatal("fetched trace differs from the origin's")
	}
	if !reflect.DeepEqual(ovB.Code, ovA.Code) {
		t.Fatal("fetched overlay differs from the origin's")
	}

	bm := b.peerFillMetrics()
	if bm.TraceFills != 1 || bm.TracesComputed != 0 {
		t.Fatalf("B trace accounting: %+v, want 1 fill, 0 computed", bm)
	}
	if bm.OverlayFills != 1 || bm.OverlaysComputed != 0 {
		t.Fatalf("B overlay accounting: %+v, want 1 fill, 0 computed", bm)
	}
	if bm.BytesFetched == 0 || bm.Errors != 0 {
		t.Fatalf("B transfer accounting: %+v", bm)
	}
	am := a.peerFillMetrics()
	if am.FillsServed != 2 || am.BytesServed == 0 {
		t.Fatalf("A serving accounting: %+v, want 2 fills served", am)
	}
	if am.TracesComputed != 1 || am.OverlaysComputed != 1 {
		t.Fatalf("A compute accounting: %+v, want exactly one of each", am)
	}
}

// TestPeerFillFallsBackPastDeadPeer: an unreachable peer costs an error
// counter, never correctness — the daemon computes locally.
func TestPeerFillFallsBackPastDeadPeer(t *testing.T) {
	s, _ := newTestServer(t, Options{
		Workers:    1,
		TraceCache: experiments.NewTraceCache(4),
		Peers:      []string{"http://127.0.0.1:1"}, // nothing listens here
	})
	wc, _ := workload.SuiteConfig("gzip")
	tr, err := s.sharedTrace(wc, 8_000)
	if err != nil {
		t.Fatal(err)
	}
	base := uarch.Baseline()
	if _, err := s.overlayFor(tr, base.Pred, base.Mem, nil); err != nil {
		t.Fatal(err)
	}
	m := s.peerFillMetrics()
	if m.TracesComputed != 1 || m.OverlaysComputed != 1 {
		t.Fatalf("local fallback did not compute: %+v", m)
	}
	if m.TraceFills != 0 || m.OverlayFills != 0 || m.Errors == 0 {
		t.Fatalf("dead peer not accounted as errors: %+v", m)
	}
}

// TestPeerFillConcurrentStress races many resolvers of the same artifacts
// against one shared cache on the filling daemon: the memo's single flight
// must collapse them to exactly one peer fetch per artifact. Run under
// -race, this is also the data-race check on the fill counters.
func TestPeerFillConcurrentStress(t *testing.T) {
	a, b := peerTestPair(t)
	wc, _ := workload.SuiteConfig("gzip")
	const insts = 8_000
	base := uarch.Baseline()
	if tr, err := a.sharedTrace(wc, insts); err != nil {
		t.Fatal(err)
	} else if _, err := a.overlayFor(tr, base.Pred, base.Mem, nil); err != nil {
		t.Fatal(err)
	}

	const racers = 16
	overlays := make([]*overlay.Overlay, racers)
	errs := make([]error, racers)
	var wg sync.WaitGroup
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tr, err := b.sharedTrace(wc, insts)
			if err != nil {
				errs[i] = err
				return
			}
			overlays[i], errs[i] = b.overlayFor(tr, base.Pred, base.Mem, nil)
		}(i)
	}
	wg.Wait()
	for i := range errs {
		if errs[i] != nil {
			t.Fatalf("racer %d: %v", i, errs[i])
		}
		if overlays[i] != overlays[0] {
			t.Fatal("racers resolved different overlay instances; single flight broken")
		}
	}
	m := b.peerFillMetrics()
	if m.TraceFills != 1 || m.OverlayFills != 1 {
		t.Fatalf("fills not collapsed by single flight: %+v", m)
	}
	if m.TracesComputed != 0 || m.OverlaysComputed != 0 {
		t.Fatalf("racer recomputed a fleet-resident artifact: %+v", m)
	}
}

// TestPeerFillHandlers exercises the fill RPC surface directly: a GET
// answers 404 until the trace cache holds the artifact and its wire frame
// after, without moving the cache's hit counters; a POST to either path
// answers 405; a malformed overlay name, or one naming a resident trace
// under a speculation spec never computed, answers 404.
func TestPeerFillHandlers(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, TraceCache: experiments.NewTraceCache(4)})
	wc, _ := workload.SuiteConfig("gzip")
	const insts = 6_000
	base := uarch.Baseline()
	traceFP := experiments.TraceFingerprint(wc, insts)
	ovFP := overlayFP(traceFP, overlay.SpecFingerprint(base.Pred, base.Mem))
	tracePath, ovPath := "/v1/cache/trace/"+traceFP, "/v1/cache/overlay/"+ovFP
	get := func(path string) (int, []byte) {
		t.Helper()
		resp := mustGet(t, ts.URL+path)
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body
	}

	for _, path := range []string{tracePath, ovPath} {
		if code, _ := get(path); code != http.StatusNotFound {
			t.Fatalf("GET %s on a cold daemon: status %d, want 404", path, code)
		}
	}
	tr, err := s.sharedTrace(wc, insts)
	if err != nil {
		t.Fatal(err)
	}
	if tr.FP != traceFP {
		t.Fatalf("sharedTrace named the trace %s, want %s", tr.FP, traceFP)
	}
	ov, err := s.overlayFor(tr, base.Pred, base.Mem, nil)
	if err != nil {
		t.Fatal(err)
	}
	soa := tr.SoA
	tc, oc := s.traces.Counters(), s.traces.OverlayCounters()
	for path, want := range map[string][]byte{tracePath: soa.EncodeWire(), ovPath: ov.EncodeWire(traceFP)} {
		if code, body := get(path); code != http.StatusOK || !bytes.Equal(body, want) {
			t.Fatalf("GET %s on a warm daemon: status %d and %d bytes, want 200 and its %d-byte frame", path, code, len(body), len(want))
		}
	}
	if s.traces.Counters() != tc || s.traces.OverlayCounters() != oc {
		t.Errorf("serving fills moved the cache counters: trace %+v → %+v, overlay %+v → %+v",
			tc, s.traces.Counters(), oc, s.traces.OverlayCounters())
	}
	if n := s.pf.fillsServed.Load(); n != 2 {
		t.Errorf("fills served = %d, want 2", n)
	}

	for _, path := range []string{tracePath, ovPath} {
		resp, err := http.Post(ts.URL+path, "application/octet-stream", bytes.NewReader(soa.EncodeWire()))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("POST %s: status %d, want 405", path, resp.StatusCode)
		}
	}
	for _, name := range []string{"zz", traceFP, traceFP + "-zz", "-" + ovFP, traceFP + "-1-2", overlayFP(traceFP, 1)} {
		if code, _ := get("/v1/cache/overlay/" + name); code != http.StatusNotFound {
			t.Errorf("GET overlay %q: status %d, want 404", name, code)
		}
	}
}

// TestPeerFilledOverlayChecked: a peer serves the trace and an overlay
// frame with a valid checksum but impossible contents — a value
// misspeculation on every store. overlayFor must reject the overlay with
// overlay.Check, count a fill error and compute the overlay locally.
func TestPeerFilledOverlayChecked(t *testing.T) {
	wc, _ := workload.SuiteConfig("gzip")
	const insts = 6_000
	cfg := uarch.Baseline()
	vp, _ := vpred.Preset("stride")
	vp.Stream = wc.ValueStream()
	cfg.VPred = &vp

	tr, err := experiments.NewTraceCache(1).SharedVia(wc, insts, nil)
	if err != nil {
		t.Fatal(err)
	}
	soa := tr.SoA
	good, err := overlay.ComputeSpec(soa, cfg.Pred, cfg.Mem, cfg.VPred)
	if err != nil {
		t.Fatal(err)
	}
	bad := *good
	bad.Code = append([]uint8(nil), good.Code...)
	for i := range bad.Code {
		if soa.Class(i) == isa.Store {
			bad.Code[i] |= overlay.VPredMiss
		}
	}
	traceFP := experiments.TraceFingerprint(wc, insts)
	ovFP := overlayFP(traceFP, overlay.SpecFingerprintV(cfg.Pred, cfg.Mem, cfg.VPred))
	frames := map[string][]byte{traceFP: soa.EncodeWire(), ovFP: bad.EncodeWire(traceFP)}
	serve := func(w http.ResponseWriter, r *http.Request) {
		if frame, ok := frames[r.PathValue("fp")]; ok {
			w.Write(frame) //nolint:errcheck
			return
		}
		http.NotFound(w, r)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/cache/trace/{fp}", serve)
	mux.HandleFunc("GET /v1/cache/overlay/{fp}", serve)
	peer := httptest.NewServer(mux)
	defer peer.Close()

	b, _ := newTestServer(t, Options{Workers: 1, TraceCache: experiments.NewTraceCache(4), Peers: []string{peer.URL}})
	local, err := b.sharedTrace(wc, insts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := b.overlayFor(local, cfg.Pred, cfg.Mem, cfg.VPred)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Code, good.Code) {
		t.Fatal("overlayFor used the peer's mutant instead of computing the overlay")
	}
	m := b.peerFillMetrics()
	if m.TraceFills != 1 || m.Errors != 1 || m.OverlayFills != 0 || m.OverlaysComputed != 1 {
		t.Errorf("accounting %+v; want 1 trace fill, 1 fill error, 0 overlay fills, 1 overlay computed", m)
	}
}

// TestPeerFilledTraceChecked: a peer serves a valid trace frame of the
// wrong length under the requested trace's name — the 2,000- or the
// 4,000-record gzip trace for a 3,000-instruction request. sharedTrace must
// count a fill error and generate the trace locally, with exactly the
// records asked for in both layouts.
func TestPeerFilledTraceChecked(t *testing.T) {
	wc, _ := workload.SuiteConfig("gzip")
	const insts = 3_000
	traceFP := experiments.TraceFingerprint(wc, insts)
	for _, n := range []int{2_000, 4_000} {
		wrong, err := experiments.NewTraceCache(1).SharedVia(wc, n, nil)
		if err != nil {
			t.Fatal(err)
		}
		frame := wrong.SoA.EncodeWire()
		mux := http.NewServeMux()
		mux.HandleFunc("GET /v1/cache/trace/{fp}", func(w http.ResponseWriter, r *http.Request) {
			if r.PathValue("fp") != traceFP {
				http.NotFound(w, r)
				return
			}
			w.Write(frame) //nolint:errcheck
		})
		peer := httptest.NewServer(mux)
		defer peer.Close()

		b, _ := newTestServer(t, Options{Workers: 1, TraceCache: experiments.NewTraceCache(4), Peers: []string{peer.URL}})
		got, err := b.sharedTrace(wc, insts)
		if err != nil {
			t.Fatal(err)
		}
		if got.SoA.Len() != insts || got.Trace.Len() != insts {
			t.Errorf("%d-record frame: the trace has %d packed and %d records, want %d", n, got.SoA.Len(), got.Trace.Len(), insts)
		}
		m := b.peerFillMetrics()
		if m.Errors != 1 || m.TraceFills != 0 || m.TracesComputed != 1 {
			t.Errorf("%d-record frame: accounting %+v; want 1 fill error, 0 trace fills, 1 trace computed", n, m)
		}
	}
}

// TestEvictedArtifactsReleased: once the trace cache has evicted a trace,
// nothing in the daemon keeps it alive, whatever overlays and model sets
// were derived from it — the cache's bound is the daemon's memory bound. A
// 1-entry trace cache evicts the first trace, with its three overlays and
// three model sets, at the second trace.
func TestEvictedArtifactsReleased(t *testing.T) {
	s, _ := newTestServer(t, Options{Workers: 1, TraceCache: experiments.NewTraceCache(1)})
	wc, _ := workload.SuiteConfig("gzip")
	const insts = 2_000
	resolve := func(insts int, preds ...string) *trace.SoA {
		t.Helper()
		tr, err := s.sharedTrace(wc, insts)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range preds {
			cfg := uarch.Baseline()
			cfg.Pred, _ = bpred.Preset(name)
			ov, err := s.overlayFor(tr, cfg.Pred, cfg.Mem, nil)
			if err != nil {
				t.Fatal(err)
			}
			set, err := tr.ModelSet(ov, cfg, cfg.ROBSize, 0, insts)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := set.For(cfg); err != nil {
				t.Fatal(err)
			}
		}
		return tr.SoA
	}
	released := make(chan struct{})
	runtime.SetFinalizer(resolve(insts, "tournament", "tage", "gshare"), func(*trace.SoA) { close(released) })
	if mc := s.traces.ModelCounters(); mc.Misses != 3 || mc.Entries != 3 {
		t.Fatalf("model counters %+v, want 3 sets resident", mc)
	}
	resolve(insts + 1)
	for try := 0; try < 20; try++ {
		runtime.GC()
		select {
		case <-released:
			return
		case <-time.After(50 * time.Millisecond):
		}
	}
	t.Fatal("the first trace is still reachable after the trace cache evicted it")
}
