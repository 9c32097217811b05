package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"intervalsim/internal/bpred"
	icache "intervalsim/internal/cache"
	"intervalsim/internal/overlay"
	"intervalsim/internal/trace"
	"intervalsim/internal/vpred"
	"intervalsim/internal/workload"
)

// Fleet-native cache sharing. A daemon that needs a packed trace or an
// overlay first asks its peers (GET /v1/cache/{trace|overlay}/<fp>) before
// computing locally, so each expensive shared artifact is computed once per
// fleet instead of once per node. Artifacts are content-addressed: traces by
// the canonical-JSON SHA-256 of (workload config, insts) — the same identity
// scheme as the durable store's simKey — and overlays by the trace
// fingerprint plus overlay.SpecFingerprint. Fetches are single-flight (they
// run inside the memo caches' per-key locks), bounded in size, and
// checksum-verified by the wire decoders; any failure falls back to local
// computation, so peer fills can only ever save work, never corrupt it.
//
// Peer discovery is push-based: the cluster coordinator stamps every batch
// dispatch with an X-Peers header listing the other fleet endpoints, and the
// daemon adopts the most recent list. A static set can also be configured
// (intervalsimd -peers) for fleets without a coordinator.

// TraceFingerprint canonically names a generated workload trace: workloads
// are deterministic functions of (config, insts), so the canonical-JSON
// SHA-256 of the resolved pair content-addresses the packed SoA across the
// fleet. Same scheme and truncation as the durable store's job IDs.
func TraceFingerprint(wc workload.Config, insts int) string {
	raw, err := json.Marshal(struct {
		V        int             `json:"v"`
		Kind     string          `json:"kind"`
		Workload workload.Config `json:"workload"`
		Insts    int             `json:"insts"`
	}{V: keyVersion, Kind: "trace", Workload: wc, Insts: insts})
	if err != nil {
		panic(fmt.Sprintf("service: trace fingerprint marshal: %v", err))
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:16])
}

// overlayFP names an overlay: the trace it annotates plus the speculation
// configuration it was computed under.
func overlayFP(traceFP string, specFP uint64) string {
	return fmt.Sprintf("%s-%016x", traceFP, specFP)
}

// peerSet is the daemon's current view of its fleet peers: base URLs it may
// issue cache-fill GETs against. The coordinator refreshes it on every batch
// dispatch, so a rebalanced fleet converges without restarts.
type peerSet struct {
	mu   sync.RWMutex
	urls []string
}

func (p *peerSet) learn(urls []string) {
	clean := urls[:0:0]
	for _, u := range urls {
		if u = strings.TrimSuffix(strings.TrimSpace(u), "/"); u != "" {
			clean = append(clean, u)
		}
	}
	if len(clean) == 0 {
		return
	}
	p.mu.Lock()
	p.urls = clean
	p.mu.Unlock()
}

func (p *peerSet) snapshot() []string {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.urls
}

func (p *peerSet) len() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return len(p.urls)
}

// fillIndex is the daemon's serving side of peer fills: a bounded FIFO map
// from fingerprint to the live artifact, populated whenever a request
// resolves a trace or overlay through the shared caches (and by push-fills
// from peers). Entries pin their artifacts, so the bound doubles as a memory
// cap on top of the underlying caches' own bounds; an evicted fingerprint
// simply answers 404 and the peer computes locally.
type fillIndex struct {
	mu           sync.Mutex
	cap          int
	traces       map[string]*trace.SoA
	traceOrder   []string
	traceFPs     map[*trace.SoA]string
	overlays     map[string]*overlay.Overlay
	overlayOrder []string
}

func newFillIndex(capacity int) *fillIndex {
	return &fillIndex{
		cap:      capacity,
		traces:   make(map[string]*trace.SoA),
		traceFPs: make(map[*trace.SoA]string),
		overlays: make(map[string]*overlay.Overlay),
	}
}

func (x *fillIndex) putTrace(fp string, soa *trace.SoA) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if _, ok := x.traces[fp]; ok {
		return
	}
	for len(x.traceOrder) >= x.cap {
		old := x.traceOrder[0]
		x.traceOrder = x.traceOrder[1:]
		delete(x.traceFPs, x.traces[old])
		delete(x.traces, old)
	}
	x.traces[fp] = soa
	x.traceFPs[soa] = fp
	x.traceOrder = append(x.traceOrder, fp)
}

func (x *fillIndex) getTrace(fp string) *trace.SoA {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.traces[fp]
}

// traceFPOf reverse-maps a resident SoA to its fingerprint, so overlay
// lookups triggered with only the packed trace in hand can name the overlay
// without recomputing the workload identity.
func (x *fillIndex) traceFPOf(soa *trace.SoA) (string, bool) {
	x.mu.Lock()
	defer x.mu.Unlock()
	fp, ok := x.traceFPs[soa]
	return fp, ok
}

func (x *fillIndex) putOverlay(fp string, ov *overlay.Overlay) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if _, ok := x.overlays[fp]; ok {
		return
	}
	for len(x.overlayOrder) >= x.cap {
		old := x.overlayOrder[0]
		x.overlayOrder = x.overlayOrder[1:]
		delete(x.overlays, old)
	}
	x.overlays[fp] = ov
	x.overlayOrder = append(x.overlayOrder, fp)
}

func (x *fillIndex) getOverlay(fp string) *overlay.Overlay {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.overlays[fp]
}

// peerFillCounters tracks the fleet-sharing economics for /metrics. The
// computed counters are the honesty check: across a fleet,
// sum(traces_computed) and sum(overlays_computed) should equal the number of
// distinct artifacts — any excess is duplicated work peer sharing failed to
// avoid.
type peerFillCounters struct {
	traceFills       atomic.Uint64
	traceFillMisses  atomic.Uint64
	tracesComputed   atomic.Uint64
	overlayFills     atomic.Uint64
	overlayFillMiss  atomic.Uint64
	overlaysComputed atomic.Uint64
	bytesFetched     atomic.Uint64
	bytesServed      atomic.Uint64
	fillsServed      atomic.Uint64
	errors           atomic.Uint64
}

// PeerFillMetrics is the /metrics slice of the peer cache-fill layer.
type PeerFillMetrics struct {
	Peers int `json:"peers"`

	TraceFills      uint64 `json:"trace_fills"`       // traces obtained from a peer
	TraceFillMisses uint64 `json:"trace_fill_misses"` // peer lookups that found nothing
	TracesComputed  uint64 `json:"traces_computed"`   // traces generated locally

	OverlayFills      uint64 `json:"overlay_fills"`
	OverlayFillMisses uint64 `json:"overlay_fill_misses"`
	OverlaysComputed  uint64 `json:"overlays_computed"`

	BytesFetched uint64 `json:"bytes_fetched"`
	BytesServed  uint64 `json:"bytes_served"`
	FillsServed  uint64 `json:"fills_served"`
	Errors       uint64 `json:"errors"`
}

func (s *Server) peerFillMetrics() PeerFillMetrics {
	c := &s.pf
	return PeerFillMetrics{
		Peers:             s.peers.len(),
		TraceFills:        c.traceFills.Load(),
		TraceFillMisses:   c.traceFillMisses.Load(),
		TracesComputed:    c.tracesComputed.Load(),
		OverlayFills:      c.overlayFills.Load(),
		OverlayFillMisses: c.overlayFillMiss.Load(),
		OverlaysComputed:  c.overlaysComputed.Load(),
		BytesFetched:      c.bytesFetched.Load(),
		BytesServed:       c.bytesServed.Load(),
		FillsServed:       c.fillsServed.Load(),
		Errors:            c.errors.Load(),
	}
}

// learnPeers adopts the coordinator's fleet view from the X-Peers header
// (comma-separated base URLs of the other daemons). Absent or empty headers
// leave the current set alone, so a static -peers configuration survives
// requests from peer-unaware clients.
func (s *Server) learnPeers(r *http.Request) {
	if h := r.Header.Get("X-Peers"); h != "" {
		s.peers.learn(strings.Split(h, ","))
	}
}

// ---- fill clients (called under the memo caches' single-flight locks) ----

// fetchFillBody GETs one peer fill URL with the configured timeout and size
// bound. Returns (nil, false) on miss or any error; errors are counted but
// never propagated — the caller always has local computation to fall back to.
func (s *Server) fetchFillBody(url string) ([]byte, bool) {
	ctx, cancel := context.WithTimeout(context.Background(), s.opts.PeerFillTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		s.pf.errors.Add(1)
		return nil, false
	}
	resp, err := s.fillHTTP.Do(req)
	if err != nil {
		s.pf.errors.Add(1)
		return nil, false
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return nil, false
	}
	if resp.StatusCode != http.StatusOK {
		s.pf.errors.Add(1)
		return nil, false
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, s.opts.MaxFillBytes+1))
	if err != nil || int64(len(body)) > s.opts.MaxFillBytes {
		s.pf.errors.Add(1)
		return nil, false
	}
	return body, true
}

// fetchPeerTrace tries each known peer for the packed trace named fp.
func (s *Server) fetchPeerTrace(fp string) *trace.SoA {
	peers := s.peers.snapshot()
	if len(peers) == 0 {
		return nil
	}
	for _, p := range peers {
		body, ok := s.fetchFillBody(p + "/v1/cache/trace/" + fp)
		if !ok {
			continue
		}
		soa, err := trace.DecodeWire(body, s.opts.MaxInsts)
		if err != nil {
			s.pf.errors.Add(1)
			continue
		}
		s.pf.bytesFetched.Add(uint64(len(body)))
		return soa
	}
	s.pf.traceFillMisses.Add(1)
	return nil
}

// fetchPeerOverlay tries each known peer for the overlay named fp, and
// verifies the frame names traceFP and passes overlay.Check against (pred,
// mem, vp) — fingerprints and the shape of every code byte — before
// attaching it to the local soa.
func (s *Server) fetchPeerOverlay(fp, traceFP string, soa *trace.SoA, pred bpred.Config, mem icache.HierarchyConfig, vp *vpred.Config) *overlay.Overlay {
	peers := s.peers.snapshot()
	if len(peers) == 0 {
		return nil
	}
	for _, p := range peers {
		body, ok := s.fetchFillBody(p + "/v1/cache/overlay/" + fp)
		if !ok {
			continue
		}
		ov, err := overlay.DecodeWire(body, traceFP, soa)
		if err != nil || ov.Check(pred, mem, vp) != nil {
			s.pf.errors.Add(1)
			continue
		}
		s.pf.bytesFetched.Add(uint64(len(body)))
		return ov
	}
	s.pf.overlayFillMiss.Add(1)
	return nil
}

// ---- fill-through cache accessors (replace direct SharedTrace/Get calls) ----

// sharedTrace resolves (wc, insts) through the server's trace cache with the
// peer-fill path: local cache, then push-fill index, then peers, then local
// generation. The fill hook runs inside the cache's per-key single flight,
// so a fleet-wide artifact is fetched (or generated) at most once per daemon
// however many requests race on it.
func (s *Server) sharedTrace(wc workload.Config, insts int) (*trace.Trace, *trace.SoA, error) {
	fp := TraceFingerprint(wc, insts)
	tr, soa, err := s.traces.SharedVia(wc, insts, func() *trace.SoA {
		if soa := s.fills.getTrace(fp); soa != nil {
			s.pf.traceFills.Add(1) // push-filled by a peer earlier
			return soa
		}
		if soa := s.fetchPeerTrace(fp); soa != nil {
			s.pf.traceFills.Add(1)
			return soa
		}
		s.pf.tracesComputed.Add(1)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	s.fills.putTrace(fp, soa)
	return tr, soa, nil
}

// overlayFor resolves the overlay of (soa, pred, mem, vp) through the
// server's overlay cache with the peer-fill path. soa must have come from
// sharedTrace (which indexes its fingerprint); otherwise the lookup degrades
// gracefully to the plain compute-locally path. A nil vp resolves the
// classic overlay under its historical fingerprint; a value-predicting
// machine gets its own fleet-wide artifact (v2 wire frames carry VPredFP, so
// peers exchange these too). A push-filled or peer-fetched overlay enters the
// cache only if it passes overlay.Check; otherwise the overlay is computed
// locally.
func (s *Server) overlayFor(soa *trace.SoA, pred bpred.Config, mem icache.HierarchyConfig, vp *vpred.Config) (*overlay.Overlay, error) {
	traceFP, known := s.fills.traceFPOf(soa)
	if !known {
		return s.overlays.GetSpec(soa, pred, mem, vp)
	}
	fp := overlayFP(traceFP, overlay.SpecFingerprintV(pred, mem, vp))
	ov, err := s.overlays.GetSpecVia(soa, pred, mem, vp, func() (*overlay.Overlay, error) {
		if ov := s.fills.getOverlay(fp); ov != nil && ov.Trace == soa {
			// A push-fill was filed under the fingerprint its sender named;
			// only Check ties its bytes to this configuration.
			if ov.Check(pred, mem, vp) == nil {
				s.pf.overlayFills.Add(1)
				return ov, nil
			}
			s.pf.errors.Add(1)
		}
		if ov := s.fetchPeerOverlay(fp, traceFP, soa, pred, mem, vp); ov != nil {
			s.pf.overlayFills.Add(1)
			return ov, nil
		}
		s.pf.overlaysComputed.Add(1)
		return overlay.ComputeSpec(soa, pred, mem, vp)
	})
	if err != nil {
		return nil, err
	}
	s.fills.putOverlay(fp, ov)
	return ov, nil
}

// ---- fill HTTP handlers ----

// validFP loosely validates a fingerprint path segment (hex plus the overlay
// separator) so arbitrary strings cannot grow the maps through push-fills.
func validFP(fp string) bool {
	if len(fp) == 0 || len(fp) > maxTraceFPLenWire {
		return false
	}
	for i := 0; i < len(fp); i++ {
		c := fp[i]
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f' || c == '-') {
			return false
		}
	}
	return true
}

const maxTraceFPLenWire = 64 // 32 hex trace fp + "-" + 16 hex spec fp fits

func (s *Server) handleTraceFillGet(w http.ResponseWriter, r *http.Request) {
	fp := r.PathValue("fp")
	soa := s.fills.getTrace(fp)
	if soa == nil {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "trace not resident"})
		return
	}
	body := soa.EncodeWire()
	s.pf.bytesServed.Add(uint64(len(body)))
	s.pf.fillsServed.Add(1)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(body) //nolint:errcheck // nothing to do for a dead peer
}

func (s *Server) handleTraceFillPut(w http.ResponseWriter, r *http.Request) {
	fp := r.PathValue("fp")
	if !validFP(fp) {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad fingerprint"})
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, s.opts.MaxFillBytes+1))
	if err != nil || int64(len(body)) > s.opts.MaxFillBytes {
		writeJSON(w, http.StatusRequestEntityTooLarge, errorResponse{Error: "fill too large"})
		return
	}
	soa, err := trace.DecodeWire(body, s.opts.MaxInsts)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	s.fills.putTrace(fp, soa)
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleOverlayFillGet(w http.ResponseWriter, r *http.Request) {
	fp := r.PathValue("fp")
	ov := s.fills.getOverlay(fp)
	if ov == nil {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "overlay not resident"})
		return
	}
	traceFP, ok := s.fills.traceFPOf(ov.Trace)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "overlay trace no longer resident"})
		return
	}
	body := ov.EncodeWire(traceFP)
	s.pf.bytesServed.Add(uint64(len(body)))
	s.pf.fillsServed.Add(1)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(body) //nolint:errcheck
}

func (s *Server) handleOverlayFillPut(w http.ResponseWriter, r *http.Request) {
	fp := r.PathValue("fp")
	if !validFP(fp) {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad fingerprint"})
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, s.opts.MaxFillBytes+1))
	if err != nil || int64(len(body)) > s.opts.MaxFillBytes {
		writeJSON(w, http.StatusRequestEntityTooLarge, errorResponse{Error: "fill too large"})
		return
	}
	// An overlay only means something relative to its trace; the push is
	// accepted only when the named trace is already resident, so the code
	// bytes can be validated against (and attached to) the local SoA.
	dash := strings.LastIndexByte(fp, '-')
	if dash < 0 {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad overlay fingerprint"})
		return
	}
	traceFP := fp[:dash]
	soa := s.fills.getTrace(traceFP)
	if soa == nil {
		writeJSON(w, http.StatusConflict, errorResponse{Error: "trace not resident; push the trace first"})
		return
	}
	ov, err := overlay.DecodeWire(body, traceFP, soa)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	s.fills.putOverlay(fp, ov)
	w.WriteHeader(http.StatusNoContent)
}

// defaultPeerFillTimeout bounds one peer fetch; generous relative to LAN
// transfer of the largest default artifact but far below recompute cost.
const defaultPeerFillTimeout = 30 * time.Second
