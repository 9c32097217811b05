package service

import (
	"bytes"
	"net/http"
	"reflect"
	"sync"
	"testing"

	"intervalsim/internal/experiments"
	"intervalsim/internal/isa"
	"intervalsim/internal/overlay"
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
	_, soaA, err := a.sharedTrace(wc, insts)
	if err != nil {
		t.Fatal(err)
	}
	ovA, err := a.overlayFor(soaA, base.Pred, base.Mem, nil)
	if err != nil {
		t.Fatal(err)
	}

	// B resolves the same artifacts: both must come from A, not local work.
	_, soaB, err := b.sharedTrace(wc, insts)
	if err != nil {
		t.Fatal(err)
	}
	ovB, err := b.overlayFor(soaB, base.Pred, base.Mem, nil)
	if err != nil {
		t.Fatal(err)
	}
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
	_, soa, err := s.sharedTrace(wc, 8_000)
	if err != nil {
		t.Fatal(err)
	}
	base := uarch.Baseline()
	if _, err := s.overlayFor(soa, base.Pred, base.Mem, nil); err != nil {
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
// -race, this is also the data-race check on the fill index and counters.
func TestPeerFillConcurrentStress(t *testing.T) {
	a, b := peerTestPair(t)
	wc, _ := workload.SuiteConfig("gzip")
	const insts = 8_000
	base := uarch.Baseline()
	if _, soa, err := a.sharedTrace(wc, insts); err != nil {
		t.Fatal(err)
	} else if _, err := a.overlayFor(soa, base.Pred, base.Mem, nil); err != nil {
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
			_, soa, err := b.sharedTrace(wc, insts)
			if err != nil {
				errs[i] = err
				return
			}
			overlays[i], errs[i] = b.overlayFor(soa, base.Pred, base.Mem, nil)
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

// TestPeerFillHandlers exercises the fill RPC surface directly: push-fill
// ordering (overlay before trace is a conflict), fingerprint hygiene, and
// pull round-trips.
func TestPeerFillHandlers(t *testing.T) {
	a, _ := newTestServer(t, Options{Workers: 1, TraceCache: experiments.NewTraceCache(4)})
	_, bts := newTestServer(t, Options{Workers: 1, TraceCache: experiments.NewTraceCache(4)})
	wc, _ := workload.SuiteConfig("gzip")
	const insts = 6_000
	base := uarch.Baseline()
	_, soa, err := a.sharedTrace(wc, insts)
	if err != nil {
		t.Fatal(err)
	}
	ov, err := a.overlayFor(soa, base.Pred, base.Mem, nil)
	if err != nil {
		t.Fatal(err)
	}
	traceFP := TraceFingerprint(wc, insts)
	ovFP := overlayFP(traceFP, overlay.SpecFingerprint(base.Pred, base.Mem))

	// Unknown fingerprints answer 404.
	for _, path := range []string{"/v1/cache/trace/" + traceFP, "/v1/cache/overlay/" + ovFP} {
		resp, err := http.Get(bts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s on cold daemon: status %d, want 404", path, resp.StatusCode)
		}
	}
	// Pushing the overlay before its trace is a conflict: the receiver has
	// no SoA to validate the code bytes against.
	resp := postRaw(t, bts.URL+"/v1/cache/overlay/"+ovFP, ov.EncodeWire(traceFP))
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("overlay push before trace: status %d, want 409", resp.StatusCode)
	}
	// Push trace, then overlay; both land.
	if resp := postRaw(t, bts.URL+"/v1/cache/trace/"+traceFP, soa.EncodeWire()); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("trace push: status %d", resp.StatusCode)
	}
	if resp := postRaw(t, bts.URL+"/v1/cache/overlay/"+ovFP, ov.EncodeWire(traceFP)); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("overlay push after trace: status %d", resp.StatusCode)
	}
	// Pull both back and verify the round trip.
	for _, path := range []string{"/v1/cache/trace/" + traceFP, "/v1/cache/overlay/" + ovFP} {
		resp, err := http.Get(bts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s after push: status %d", path, resp.StatusCode)
		}
	}
	// Hostile fingerprints are rejected before touching the maps.
	for _, fp := range []string{"UPPER", "zz", "..%2f..", "deadbeef!"} {
		if resp := postRaw(t, bts.URL+"/v1/cache/trace/"+fp, soa.EncodeWire()); resp.StatusCode != http.StatusBadRequest &&
			resp.StatusCode != http.StatusNotFound && resp.StatusCode != http.StatusMovedPermanently {
			t.Fatalf("push under fingerprint %q: status %d, want rejection", fp, resp.StatusCode)
		}
	}
}

// TestPushFilledOverlayChecked: a pushed overlay frame with a valid checksum
// but impossible contents — a value misspeculation on every store — is
// filed under its fingerprint, yet never used: overlayFor rejects it with
// overlay.Check, counts a fill error and computes the overlay locally.
func TestPushFilledOverlayChecked(t *testing.T) {
	b, bts := newTestServer(t, Options{Workers: 1, TraceCache: experiments.NewTraceCache(4)})
	wc, _ := workload.SuiteConfig("gzip")
	const insts = 6_000
	cfg := uarch.Baseline()
	vp, _ := vpred.Preset("stride")
	vp.Stream = wc.ValueStream()
	cfg.VPred = &vp

	_, soa, err := experiments.NewTraceCache(1).Shared(wc, insts)
	if err != nil {
		t.Fatal(err)
	}
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
	traceFP := TraceFingerprint(wc, insts)
	ovFP := overlayFP(traceFP, overlay.SpecFingerprintV(cfg.Pred, cfg.Mem, cfg.VPred))
	if resp := postRaw(t, bts.URL+"/v1/cache/trace/"+traceFP, soa.EncodeWire()); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("trace push: status %d", resp.StatusCode)
	}
	if resp := postRaw(t, bts.URL+"/v1/cache/overlay/"+ovFP, bad.EncodeWire(traceFP)); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("overlay push: status %d", resp.StatusCode)
	}

	_, local, err := b.sharedTrace(wc, insts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := b.overlayFor(local, cfg.Pred, cfg.Mem, cfg.VPred)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Code, good.Code) {
		t.Fatal("overlayFor used the pushed mutant instead of computing the overlay")
	}
	if e, c := b.pf.errors.Load(), b.pf.overlaysComputed.Load(); e != 1 || c != 1 {
		t.Errorf("fill errors %d, overlays computed %d; want 1 and 1", e, c)
	}
}

// postRaw POSTs opaque bytes (a wire frame) and returns the closed response.
func postRaw(t *testing.T, url string, body []byte) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	resp.Body.Close()
	return resp
}
