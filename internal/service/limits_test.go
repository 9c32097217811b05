package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"intervalsim/internal/uarch"
	"intervalsim/internal/vpred"
)

// oversizedRequest is a request body with one size-bearing field past its
// admission bound, and the field and bound the rejection must name.
type oversizedRequest struct {
	name, url, body string
	field           string
	limit           int
}

// oversizedRequests covers every bounded field on every endpoint that
// carries it. Each value is far past its bound: admitted, it would allocate
// gigabytes.
func oversizedRequests(t testing.TB) []oversizedRequest {
	t.Helper()
	const huge = 1 << 28
	rs := []oversizedRequest{
		{"knob width", "/v1/simulate", `{"benchmark":"gzip","insts":20000,"machine":{"width":268435456}}`, "machine.width", maxWidth},
		{"knob depth", "/v1/simulate", `{"benchmark":"gzip","insts":20000,"machine":{"depth":268435456}}`, "machine.depth", maxDepth},
		{"knob rob", "/v1/simulate", `{"benchmark":"gzip","insts":20000,"machine":{"rob":1073741824}}`, "machine.rob", maxROB},
		{"sweep widths", "/v1/sweep", `{"benchmark":"gzip","insts":20000,"widths":[2,268435456]}`, "widths", maxWidth},
		{"sweep depths", "/v1/sweep", `{"benchmark":"gzip","insts":20000,"depths":[268435456]}`, "depths", maxDepth},
		{"sweep robs", "/v1/sweep", `{"benchmark":"gzip","insts":20000,"mode":"model","robs":[1073741824]}`, "robs", maxROB},
		{"sweepjob robs", "/v1/sweepjobs", `{"benchmark":"gzip","insts":20000,"robs":[1073741824]}`, "robs", maxROB},
		{"batch width", "/v1/batch", `{"benchmark":"gzip","insts":20000,"points":[{"seq":0,"width":268435456,"depth":3,"rob":64}]}`, "points[0].width", maxWidth},
		{"batch depth", "/v1/batch", `{"benchmark":"gzip","insts":20000,"points":[{"seq":0,"width":2,"depth":3,"rob":64},{"seq":1,"width":2,"depth":268435456,"rob":64}]}`, "points[1].depth", maxDepth},
		{"batch rob", "/v1/batch", `{"benchmark":"gzip","insts":20000,"mode":"model","points":[{"seq":0,"width":2,"depth":3,"rob":1073741824}]}`, "points[0].rob", maxROB},
		{"sweep sample units", "/v1/sweep", `{"benchmark":"gzip","insts":20000000,"mode":"sampled","sample_detailed":1,"sample_skip":1}`, "sample_detailed", maxSampleUnits},
		{"sweepjob sample units", "/v1/sweepjobs", `{"benchmark":"gzip","insts":20000000,"mode":"sampled","sample_detailed":2,"sample_skip":1}`, "sample_detailed", maxSampleUnits},
		{"batch sample units", "/v1/batch", `{"benchmark":"gzip","insts":20000000,"mode":"sampled","sample_detailed":1,"sample_skip":3,"points":[{"seq":0,"width":2,"depth":3,"rob":64}]}`, "sample_detailed", maxSampleUnits},
	}
	wl := `"Name":"w","Seed":1,"Regions":2,"BlocksPerRegion":4,"BlockSize":{"Min":2,"Max":6},"LoopTrip":{"Min":2,"Max":12},"LoadFrac":0.2,"DataFootprint":65536`
	for _, w := range []struct {
		field, from, to string
		limit           int
	}{
		{"workload.Regions", `"Regions":2`, `"Regions":1048576`, maxRegions},
		{"workload.BlocksPerRegion", `"BlocksPerRegion":4`, `"BlocksPerRegion":1048576`, maxBlocks},
		{"workload.BlockSize.Max", `"Max":6`, `"Max":1048576`, maxBlockSize},
	} {
		body := strings.Replace(wl, w.from, w.to, 1)
		rs = append(rs,
			oversizedRequest{w.field, "/v1/simulate", `{"workload":{` + body + `},"insts":5000}`, w.field, w.limit},
			oversizedRequest{w.field + " (batch)", "/v1/batch", `{"workload":{` + body + `},"insts":5000,"points":[{"seq":0,"width":2,"depth":3,"rob":64}]}`, w.field, w.limit})
	}
	vp, _ := vpred.Preset("stride")
	for _, c := range []struct {
		field string
		limit int
		set   func(*uarch.Config)
	}{
		{"FetchWidth", maxWidth, func(c *uarch.Config) { c.FetchWidth = huge }},
		{"DispatchWidth", maxWidth, func(c *uarch.Config) { c.DispatchWidth = huge }},
		{"IssueWidth", maxWidth, func(c *uarch.Config) { c.IssueWidth = huge }},
		{"CommitWidth", maxWidth, func(c *uarch.Config) { c.CommitWidth = huge }},
		{"FrontendDepth", maxDepth, func(c *uarch.Config) { c.FrontendDepth = huge }},
		{"ROBSize", maxROB, func(c *uarch.Config) { c.ROBSize = 1 << 30 }},
		{"IQSize", maxROB, func(c *uarch.Config) { c.IQSize = 1 << 30 }},
		{"FU.IntALU.Count", maxFUs, func(c *uarch.Config) { c.FU.IntALU.Count = huge }},
		{"FU.IntMul.Count", maxFUs, func(c *uarch.Config) { c.FU.IntMul.Count = huge }},
		{"FU.IntDiv.Count", maxFUs, func(c *uarch.Config) { c.FU.IntDiv.Count = huge }},
		{"FU.FPAdd.Count", maxFUs, func(c *uarch.Config) { c.FU.FPAdd.Count = huge }},
		{"FU.FPMul.Count", maxFUs, func(c *uarch.Config) { c.FU.FPMul.Count = huge }},
		{"FU.FPDiv.Count", maxFUs, func(c *uarch.Config) { c.FU.FPDiv.Count = huge }},
		{"FU.MemPort.Count", maxFUs, func(c *uarch.Config) { c.FU.MemPort.Count = huge }},
		{"Pred.Entries", maxPredEntries, func(c *uarch.Config) { c.Pred.Entries = 1 << 26 }},
		{"Pred.BTBEntries", maxBTBEntries, func(c *uarch.Config) { c.Pred.BTBEntries = 1 << 26 }},
		{"Mem.L1I.Size/LineSize", maxCacheLines, func(c *uarch.Config) { c.Mem.L1I.Size = 1 << 40 }},
		{"Mem.L1D.Size/LineSize", maxCacheLines, func(c *uarch.Config) { c.Mem.L1D.Size, c.Mem.L1D.LineSize = 1<<24, 1 }},
		{"Mem.L2.Size/LineSize", maxCacheLines, func(c *uarch.Config) { c.Mem.L2.Size = 1 << 36 }},
		{"Mem.L2.Ways", maxCacheWays, func(c *uarch.Config) { c.Mem.L2.Ways = 1 << 14 }},
		{"VPred.Entries", maxVPredEntries, func(c *uarch.Config) { v := vp; v.Entries = huge; c.VPred = &v }},
	} {
		cfg := uarch.Baseline()
		c.set(&cfg)
		raw, err := json.Marshal(SimulateRequest{Benchmark: "mcf", Insts: 20_000, Machine: MachineSpec{Config: &cfg}})
		if err != nil {
			t.Fatal(err)
		}
		rs = append(rs, oversizedRequest{"config " + c.field, "/v1/simulate", string(raw), "machine.config." + c.field, c.limit})
	}
	return rs
}

// admit runs the admission of the endpoint at url on body, as its handler
// does, without submitting anything.
func (s *Server) admit(url string, body []byte) error {
	r := httptest.NewRequest("POST", url, bytes.NewReader(body))
	w := httptest.NewRecorder()
	switch url {
	case "/v1/simulate":
		var req SimulateRequest
		if err := decodeJSON(w, r, &req); err != nil {
			return err
		}
		_, err := s.resolveSimulate(&req)
		return err
	case "/v1/sweep", "/v1/sweepjobs":
		var req SweepRequest
		if err := decodeJSON(w, r, &req); err != nil {
			return err
		}
		_, err := s.resolveSweep(&req)
		return err
	case "/v1/batch":
		var req BatchRequest
		if err := decodeJSON(w, r, &req); err != nil {
			return err
		}
		_, err := s.resolveBatch(&req)
		return err
	}
	return fmt.Errorf("no admission for %s", url)
}

// TestOversizedRequestsRejected pins the admission bounds: a request with
// any size-bearing field past its bound gets HTTP 400 naming the field and
// the bound, on every endpoint that carries the field. Each body is first
// put through admission directly, so a build that admits it fails here
// instead of submitting a job that allocates gigabytes.
func TestOversizedRequestsRejected(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, Store: openTestStore(t, t.TempDir())})
	waitReady(t, s)
	for _, rq := range oversizedRequests(t) {
		want, wantBound := rq.field+" ", fmt.Sprintf("exceeds the bound %d", rq.limit)
		err := s.admit(rq.url, []byte(rq.body))
		if err == nil {
			t.Fatalf("%s: admitted %s", rq.name, rq.body)
		}
		if !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), wantBound) {
			t.Errorf("%s: rejection %q does not name %s and its bound %d", rq.name, err, rq.field, rq.limit)
		}
		resp, err := http.Post(ts.URL+rq.url, "application/json", strings.NewReader(rq.body))
		if err != nil {
			t.Fatal(err)
		}
		body := decodeBody[errorResponse](t, resp)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(body.Error, want) || !strings.Contains(body.Error, wantBound) {
			t.Errorf("%s: status %d, error %q; want 400 naming %s and its bound %d",
				rq.name, resp.StatusCode, body.Error, rq.field, rq.limit)
		}
	}
}

// TestBoundsAdmitRepositoryRequests checks the other side of each bound:
// the largest design point every sweep surface uses, the default grid and
// each preset are admitted.
func TestBoundsAdmitRepositoryRequests(t *testing.T) {
	s := &Server{opts: Options{}.withDefaults()}
	for _, body := range []string{
		`{"benchmark":"mcf","insts":20000,"machine":{"width":8,"depth":15,"rob":256}}`,
		`{"benchmark":"mcf","insts":20000,"machine":{"width":64,"depth":256,"rob":4096}}`,
		`{"benchmark":"mcf","insts":20000,"machine":{"pred":"tournament","vpred":"fcm"}}`,
	} {
		if err := s.admit("/v1/simulate", []byte(body)); err != nil {
			t.Errorf("%s: %v", body, err)
		}
	}
	if err := s.admit("/v1/sweep", []byte(`{"benchmark":"gzip","insts":20000}`)); err != nil {
		t.Errorf("default grid: %v", err)
	}
	if err := s.admit("/v1/sweep", []byte(`{"benchmark":"gzip","insts":20000,"widths":[64],"depths":[256],"robs":[4096]}`)); err != nil {
		t.Errorf("grid at the bounds: %v", err)
	}
}

// sampleUnitBodies are sampled sweeps at the measurement-unit bound and one
// unit past it: (insts − warmup) / (sample_detailed + sample_skip), rounded
// up, is 65,536 and 65,537.
var sampleUnitBodies = struct{ at, past []string }{
	at: []string{
		`{"benchmark":"gzip","insts":131072,"mode":"sampled","sample_detailed":1,"sample_skip":1}`,
		`{"benchmark":"gzip","insts":141072,"warmup":10000,"mode":"sampled","sample_detailed":1,"sample_skip":1}`,
		`{"benchmark":"gzip","insts":196606,"mode":"sampled","sample_detailed":2,"sample_skip":1}`,
	},
	past: []string{
		`{"benchmark":"gzip","insts":131073,"mode":"sampled","sample_detailed":1,"sample_skip":1}`,
		`{"benchmark":"gzip","insts":141072,"warmup":9999,"mode":"sampled","sample_detailed":1,"sample_skip":1}`,
		`{"benchmark":"gzip","insts":196609,"mode":"sampled","sample_detailed":2,"sample_skip":1}`,
	},
}

// TestSampleUnitsBound pins the sampled-mode admission bound at its edge: a
// sweep taking maxSampleUnits measurement units is admitted, one taking one
// more is refused with a 400 that names both phase fields and the bound,
// and a phase sum past the uint64 range saturates to one unit.
func TestSampleUnitsBound(t *testing.T) {
	s := &Server{opts: Options{}.withDefaults()}
	for _, body := range sampleUnitBodies.at {
		if err := s.admit("/v1/sweep", []byte(body)); err != nil {
			t.Errorf("%s: %v", body, err)
		}
	}
	for _, body := range sampleUnitBodies.past {
		err := s.admit("/v1/sweep", []byte(body))
		if !errors.Is(err, errBadRequest) {
			t.Fatalf("%s: admitted or not a 400 (%v)", body, err)
		}
		for _, want := range []string{"sample_detailed ", "sample_skip ", "65537 measurement units", fmt.Sprintf("exceeds the bound %d", maxSampleUnits)} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: rejection %q does not say %q", body, err, want)
			}
		}
	}
	saturated := `{"benchmark":"gzip","insts":1000000,"mode":"sampled","sample_detailed":18446744073709551615,"sample_skip":1}`
	if err := s.admit("/v1/sweep", []byte(saturated)); err != nil {
		t.Errorf("saturating phase sum: %v", err)
	}
	if got := sampleUnits(1_000_000, math.MaxUint64, 1); got != 1 {
		t.Errorf("saturating phase sum takes %d units, want 1", got)
	}
}
