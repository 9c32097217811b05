package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"intervalsim/internal/experiments"
	"intervalsim/internal/uarch"
	"intervalsim/internal/vpred"
	"intervalsim/internal/workload"
)

// TestUnknownVPredRejected pins the admission contract for the two
// value-speculation axes: an unknown value-predictor preset or an
// out-of-range fetch rate is the client's mistake — HTTP 400 with a JSON
// error naming the valid choices (or the valid range), counted under
// bad_input — never a 500 from a worker that already accepted the job.
func TestUnknownVPredRejected(t *testing.T) {
	_, ts := newTestServer(t, Options{})

	cases := []struct {
		name string
		url  string
		body string
	}{
		{"simulate vpred preset", "/v1/simulate", `{"benchmark":"gzip","machine":{"vpred":"oracle"}}`},
		{"simulate fetchrate high", "/v1/simulate", `{"benchmark":"gzip","machine":{"fetchrate":1.5}}`},
		{"simulate fetchrate negative", "/v1/simulate", `{"benchmark":"gzip","machine":{"fetchrate":-0.5}}`},
		{"simulate vpred and config", "/v1/simulate", `{"benchmark":"gzip","machine":{"vpred":"stride","config":{}}}`},
		{"sweep vpred preset", "/v1/sweep", `{"benchmark":"gzip","insts":20000,"widths":[2],"depths":[4],"robs":[64],"vpred":"oracle"}`},
		{"sweep fetchrate", "/v1/sweep", `{"benchmark":"gzip","insts":20000,"widths":[2],"depths":[4],"robs":[64],"fetchrate":2}`},
		{"batch vpred preset", "/v1/batch", `{"benchmark":"gzip","insts":20000,"points":[{"seq":0,"width":2,"depth":4,"rob":64}],"vpred":"oracle"}`},
		{"batch fetchrate", "/v1/batch", `{"benchmark":"gzip","insts":20000,"points":[{"seq":0,"width":2,"depth":4,"rob":64}],"fetchrate":1.01}`},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+tc.url, "application/json", strings.NewReader(tc.body))
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
		if strings.Contains(tc.body, "oracle") {
			// Preset rejections must name every valid choice.
			for _, kind := range vpred.PresetNames() {
				if !strings.Contains(body.Error, kind) {
					t.Errorf("%s: error %q does not list preset %s", tc.name, body.Error, kind)
				}
			}
		}
		if strings.Contains(tc.name, "fetchrate") && !strings.Contains(body.Error, "(0, 1]") {
			t.Errorf("%s: error %q does not state the valid range", tc.name, body.Error)
		}
	}

	m := decodeBody[MetricsResponse](t, mustGet(t, ts.URL+"/metrics"))
	if m.Jobs[outcomeBadInput] != uint64(len(cases)) {
		t.Errorf("bad_input count = %d, want %d", m.Jobs[outcomeBadInput], len(cases))
	}
}

// TestSimKeyBytesStable pins the exact canonical key bytes and the derived
// job ID for a request that does not use value speculation. These literals
// were captured before the vpred/fetchrate axes existed; if this test ever
// needs a golden update, every previously stored result has been orphaned
// and keyVersion must be bumped instead.
func TestSimKeyBytesStable(t *testing.T) {
	s := New(Options{})
	defer s.Shutdown(context.Background()) //nolint:errcheck

	in, err := s.resolveSimulate(&SimulateRequest{
		Benchmark: "gzip",
		Insts:     20_000,
		Machine:   MachineSpec{Width: 4, Depth: 5, ROB: 64},
	})
	if err != nil {
		t.Fatal(err)
	}
	const wantKey = `{"v":1,"kind":"simulate","workload":{"Name":"gzip","Seed":1738649601,"Regions":8,"BlocksPerRegion":12,"BlockSize":{"Min":4,"Max":10},"LoopTrip":{"Min":16,"Max":64},"RegionTheta":1.2,"LoadFrac":0.24,"StoreFrac":0.12,"MulFrac":0.01,"DivFrac":0.001,"FPFrac":0,"ChainProb":0.45,"RandomBranchFrac":0.06,"RandomBranchBias":0.4,"PatternBranchFrac":0.15,"TakenBias":0.96,"DataFootprint":262144,"StrideFrac":0.7,"Locality":1.4},"insts":20000,"warmup":0,"config":{"Name":"w4-d5-r64","FetchWidth":4,"DispatchWidth":4,"IssueWidth":4,"CommitWidth":4,"FrontendDepth":5,"ROBSize":64,"IQSize":32,"FU":{"IntALU":{"Count":4,"Latency":1,"Pipelined":true},"IntMul":{"Count":2,"Latency":3,"Pipelined":true},"IntDiv":{"Count":1,"Latency":20,"Pipelined":false},"FPAdd":{"Count":2,"Latency":2,"Pipelined":true},"FPMul":{"Count":1,"Latency":4,"Pipelined":true},"FPDiv":{"Count":1,"Latency":12,"Pipelined":false},"MemPort":{"Count":2,"Latency":1,"Pipelined":true}},"Pred":{"Kind":"tournament","Entries":16384,"HistBits":12,"BTBEntries":4096},"Mem":{"L1I":{"Name":"L1I","Size":65536,"LineSize":64,"Ways":2,"Repl":0},"L1D":{"Name":"L1D","Size":65536,"LineSize":64,"Ways":4,"Repl":0},"L2":{"Name":"L2","Size":1048576,"LineSize":64,"Ways":8,"Repl":0},"Lat":{"L1":3,"L2":12,"Mem":250}}},"spec_fp":17466966229543475894}`
	const wantID = "jeec57884ef13fd23efd77b18b144152a"
	key := simKey(in)
	if string(key) != wantKey {
		t.Errorf("default simulate key bytes drifted:\n got %s\nwant %s", key, wantKey)
	}
	if id := jobID("j", key); id != wantID {
		t.Errorf("default simulate job ID = %s, want %s", id, wantID)
	}
	for _, field := range []string{`"vpred"`, `"fetchrate"`, `"VPred"`, `"FetchRate"`} {
		if strings.Contains(string(key), field) {
			t.Errorf("default simulate key mentions %s (old store entries would miss): %s", field, key)
		}
	}

	sw, err := s.resolveSweep(&SweepRequest{
		Benchmark: "gzip", Insts: 20_000,
		Widths: []int{2}, Depths: []int{4}, ROBs: []int{64},
	})
	if err != nil {
		t.Fatal(err)
	}
	const wantSweepID = "sc5c09f3c954bf47c8c59bc0d25a91e5d"
	skey := sweepKey(sw)
	if id := jobID("s", skey); id != wantSweepID {
		t.Errorf("default sweep job ID = %s, want %s (key %s)", id, wantSweepID, skey)
	}
	for _, field := range []string{`"vpred"`, `"fetchrate"`} {
		if bytes.Contains(skey, []byte(field)) {
			t.Errorf("default sweep key mentions %s: %s", field, skey)
		}
	}
}

// TestSweepVPredAxis: a value-predicting sweep is a distinct store identity
// whose key names both new fields, while the default identity stays silent
// about them (covered byte-for-byte by TestSimKeyBytesStable).
func TestSweepVPredAxis(t *testing.T) {
	s := New(Options{})
	defer s.Shutdown(context.Background()) //nolint:errcheck

	base := SweepRequest{
		Benchmark: "twolf",
		Insts:     20_000,
		Widths:    []int{4},
		Depths:    []int{4},
		ROBs:      []int{64},
	}
	resolve := func(req SweepRequest) sweepInputs {
		in, err := s.resolveSweep(&req)
		if err != nil {
			t.Fatal(err)
		}
		return in
	}
	defKey := sweepKey(resolve(base))
	spec := base
	spec.VPred = "stride"
	spec.FetchRate = 0.5
	k := sweepKey(resolve(spec))
	if bytes.Equal(k, defKey) {
		t.Error("value-speculating sweep shares the default identity")
	}
	if !bytes.Contains(k, []byte(`"vpred":"stride"`)) || !bytes.Contains(k, []byte(`"fetchrate":0.5`)) {
		t.Errorf("value-speculating sweep key missing its axes: %s", k)
	}
}

// TestSweepJobVPredIdentity: the durable-job spec journals both
// value-speculation axes and round-trips them, so a resumed job re-resolves
// the same machine — including the workload-derived value stream.
func TestSweepJobVPredIdentity(t *testing.T) {
	s := New(Options{})
	defer s.Shutdown(context.Background()) //nolint:errcheck

	spec := sweepJobSpec{
		Benchmark: "gzip", Insts: 20_000,
		Widths: []int{2}, Depths: []int{4}, ROBs: []int{64},
		VPred: "stride", FetchRate: 0.5, Mode: "sim",
	}
	raw := mustJSON(spec)
	var back sweepJobSpec
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.VPred != "stride" || back.FetchRate != 0.5 {
		t.Fatalf("journaled spec lost the value-speculation axes: %+v", back)
	}
	in, err := s.resolveSweep(back.request())
	if err != nil {
		t.Fatal(err)
	}
	if in.cfg.VPred == nil || in.cfg.VPred.Kind != "stride" {
		t.Fatalf("resumed job resolved vpred %+v, want stride", in.cfg.VPred)
	}
	wc, _ := workload.SuiteConfig("gzip")
	if in.cfg.VPred.Stream != wc.ValueStream() {
		t.Errorf("resumed job's value stream %+v, want the workload's %+v", in.cfg.VPred.Stream, wc.ValueStream())
	}
	if in.cfg.FetchRate != 0.5 {
		t.Errorf("resumed job resolved fetchrate %v, want 0.5", in.cfg.FetchRate)
	}
}

// TestSimulateVPredEndToEnd runs the full pipeline with value prediction on:
// the service result must match a direct in-process run bit for bit and
// must still come from overlay replay (the vpred-aware overlay, not the
// legacy one).
func TestSimulateVPredEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})

	const insts = 50_000
	resp := postJSON(t, ts.URL+"/v1/simulate", SimulateRequest{
		Benchmark: "gzip",
		Insts:     insts,
		Machine:   MachineSpec{Width: 4, Depth: 5, ROB: 64, VPred: "stride", FetchRate: 0.5},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	job := decodeBody[JobView](t, resp)
	done := pollJob(t, ts.URL, job.ID)
	if done.Status != JobDone || done.Outcome != outcomeOK {
		t.Fatalf("job finished %+v, want done/ok", done)
	}
	var got SimulateResult
	if err := json.Unmarshal(done.Result, &got); err != nil {
		t.Fatalf("unmarshal result: %v", err)
	}

	wc, _ := workload.SuiteConfig("gzip")
	art, err := experiments.DefaultTraceCache.SharedVia(wc, insts, nil)
	if err != nil {
		t.Fatalf("SharedVia: %v", err)
	}
	soa := art.SoA
	cfg := experiments.Point(4, 5, 64)
	preset, _ := vpred.Preset("stride")
	preset.Stream = wc.ValueStream()
	cfg.VPred = &preset
	cfg.FetchRate = 0.5
	want, err := uarch.Run(soa.Reader(), cfg, uarch.Options{RecordMispredicts: true})
	if err != nil {
		t.Fatalf("direct run: %v", err)
	}
	if got.Cycles != want.Cycles || got.Mispredicts != want.Mispredicts {
		t.Errorf("cycles/mispredicts = %d/%d, want %d/%d", got.Cycles, got.Mispredicts, want.Cycles, want.Mispredicts)
	}
	if want.ValuePredHits == 0 {
		t.Error("direct run saw no value-prediction hits; the axis is probably not wired")
	}
	if got.Path != "soa+overlay" {
		t.Errorf("path = %q, want soa+overlay", got.Path)
	}

	base := experiments.Point(4, 5, 64)
	baseRes, err := uarch.Run(soa.Reader(), base, uarch.Options{RecordMispredicts: true})
	if err != nil {
		t.Fatalf("baseline run: %v", err)
	}
	if baseRes.Cycles == got.Cycles {
		t.Errorf("value speculation and baseline agree on %d cycles (suspicious)", got.Cycles)
	}
}
