package service

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

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
// experiments.TraceFingerprint, the canonical-JSON SHA-256 of (workload
// config, insts) and the trace cache's own key, and overlays by the trace
// fingerprint plus overlay.SpecFingerprintV. Fetches are single-flight (they
// run inside the memo caches' per-key locks), bounded in size, and
// checksum-verified by the wire decoders; any failure falls back to local
// computation, so peer fills can only ever save work, never corrupt it.
//
// A daemon serves fills from its trace and overlay caches and from nothing
// else: what the caches have evicted answers 404, so their bounds are the
// daemon's memory bound, and the asking peer computes the artifact itself.
//
// Peer discovery is push-based: the cluster coordinator stamps every batch
// dispatch with an X-Peers header listing the other fleet endpoints, and the
// daemon adopts the most recent list. A static set can also be configured
// (intervalsimd -peers) for fleets without a coordinator.

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

// fetchFillBody GETs one peer fill URL under the fill client's timeout and
// the fill size bound. Returns (nil, false) on miss or any error; errors are
// counted but never propagated — the caller always has local computation to
// fall back to.
func (s *Server) fetchFillBody(url string) ([]byte, bool) {
	resp, err := s.fillHTTP.Get(url)
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
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxFillBytes+1))
	if err != nil || int64(len(body)) > maxFillBytes {
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
		soa, err := trace.DecodeWire(body, maxInsts)
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

// ---- fill-through cache accessors ----

// sharedTrace resolves (wc, insts) through the server's trace cache with the
// peer-fill path: local cache, then peers, then local generation, and also
// returns the trace's fingerprint. The fill hook runs inside the cache's
// per-key single flight, so a fleet-wide artifact is fetched (or generated)
// at most once per daemon however many requests race on it.
func (s *Server) sharedTrace(wc workload.Config, insts int) (*trace.Trace, *trace.SoA, string, error) {
	return s.traces.SharedVia(wc, insts, func(fp string) *trace.SoA {
		if soa := s.fetchPeerTrace(fp); soa != nil {
			s.pf.traceFills.Add(1)
			return soa
		}
		s.pf.tracesComputed.Add(1)
		return nil
	})
}

// overlayFor resolves the overlay of (soa, pred, mem, vp) through the
// server's overlay cache with the peer-fill path; traceFP is soa's
// fingerprint, as sharedTrace returned it. A nil vp resolves the classic
// overlay under its historical fingerprint; a value-predicting machine gets
// its own fleet-wide artifact (v2 wire frames carry VPredFP, so peers
// exchange these too). A peer-fetched overlay enters the cache only if it
// passes overlay.Check; otherwise the overlay is computed locally.
func (s *Server) overlayFor(soa *trace.SoA, traceFP string, pred bpred.Config, mem icache.HierarchyConfig, vp *vpred.Config) (*overlay.Overlay, error) {
	fp := overlayFP(traceFP, overlay.SpecFingerprintV(pred, mem, vp))
	return s.overlays.GetSpecVia(soa, pred, mem, vp, func() (*overlay.Overlay, error) {
		if ov := s.fetchPeerOverlay(fp, traceFP, soa, pred, mem, vp); ov != nil {
			s.pf.overlayFills.Add(1)
			return ov, nil
		}
		s.pf.overlaysComputed.Add(1)
		return overlay.ComputeSpec(soa, pred, mem, vp)
	})
}

// ---- fill HTTP handlers: GET only, answered from the caches ----

func (s *Server) handleTraceFillGet(w http.ResponseWriter, r *http.Request) {
	soa, ok := s.traces.Resident(r.PathValue("fp"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "trace not resident"})
		return
	}
	s.serveFill(w, soa.EncodeWire())
}

// handleOverlayFillGet serves the overlay named traceFP-specFP (see
// overlayFP): the trace must be resident under traceFP and its overlay
// under specFP. Any other name is simply not resident.
func (s *Server) handleOverlayFillGet(w http.ResponseWriter, r *http.Request) {
	traceFP, spec, _ := strings.Cut(r.PathValue("fp"), "-")
	var ov *overlay.Overlay
	if specFP, err := strconv.ParseUint(spec, 16, 64); err == nil {
		if soa, ok := s.traces.Resident(traceFP); ok {
			ov, _ = s.overlays.Resident(soa, specFP)
		}
	}
	if ov == nil {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "overlay not resident"})
		return
	}
	s.serveFill(w, ov.EncodeWire(traceFP))
}

// serveFill writes one fill frame and counts it.
func (s *Server) serveFill(w http.ResponseWriter, body []byte) {
	s.pf.bytesServed.Add(uint64(len(body)))
	s.pf.fillsServed.Add(1)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(body) //nolint:errcheck // nothing to do for a dead peer
}
