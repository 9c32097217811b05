package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"intervalsim/internal/bpred"
	"intervalsim/internal/experiments"
	"intervalsim/internal/uarch"
	"intervalsim/internal/workload"
)

// TestUnknownPredictorRejected pins the admission contract for the predictor
// axis: a request naming a predictor the server does not know is the
// client's mistake — HTTP 400 with a JSON error naming the valid presets,
// counted under bad_input — never a 500 from a worker that already accepted
// the job.
func TestUnknownPredictorRejected(t *testing.T) {
	_, ts := newTestServer(t, Options{})

	cases := []struct {
		name string
		url  string
		body string
	}{
		{"simulate preset", "/v1/simulate", `{"benchmark":"gzip","machine":{"pred":"neural-magic"}}`},
		{"simulate inline kind", "/v1/simulate", `{"benchmark":"gzip","machine":{"config":{"Name":"x","Pred":{"Kind":"neural-magic"}}}}`},
		{"simulate pred and config", "/v1/simulate", `{"benchmark":"gzip","machine":{"pred":"tage","config":{}}}`},
		{"sweep preset", "/v1/sweep", `{"benchmark":"gzip","insts":20000,"widths":[2],"depths":[4],"robs":[64],"pred":"neural-magic"}`},
		{"batch preset", "/v1/batch", `{"benchmark":"gzip","insts":20000,"points":[{"seq":0,"width":2,"depth":4,"rob":64}],"pred":"neural-magic"}`},
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
		if strings.Contains(tc.body, "neural-magic") && !strings.Contains(tc.body, "config") {
			// Preset rejections must name the valid choices.
			if !strings.Contains(body.Error, "tage") || !strings.Contains(body.Error, "tournament") {
				t.Errorf("%s: error %q does not list the valid presets", tc.name, body.Error)
			}
		}
	}

	m := decodeBody[MetricsResponse](t, mustGet(t, ts.URL+"/metrics"))
	if m.Jobs[outcomeBadInput] != uint64(len(cases)) {
		t.Errorf("bad_input count = %d, want %d", m.Jobs[outcomeBadInput], len(cases))
	}
}

// TestSimulatePredictorPreset runs the full pipeline under a non-default
// predictor: the service result must match a direct in-process run with the
// same preset bit for bit, and must still come from overlay replay (the
// overlay must follow the requested predictor, not the baseline).
func TestSimulatePredictorPreset(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})

	const insts = 50_000
	resp := postJSON(t, ts.URL+"/v1/simulate", SimulateRequest{
		Benchmark: "gzip",
		Insts:     insts,
		Machine:   MachineSpec{Width: 4, Depth: 5, ROB: 64, Pred: "tage"},
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
	cfg.Pred, _ = bpred.Preset("tage")
	want, err := uarch.Run(soa.Reader(), cfg, uarch.Options{RecordMispredicts: true})
	if err != nil {
		t.Fatalf("direct run: %v", err)
	}
	if got.Cycles != want.Cycles || got.Mispredicts != want.Mispredicts {
		t.Errorf("cycles/mispredicts = %d/%d, want %d/%d", got.Cycles, got.Mispredicts, want.Cycles, want.Mispredicts)
	}
	if got.Path != "soa+overlay" {
		t.Errorf("path = %q, want soa+overlay", got.Path)
	}

	// The baseline run must differ: if tage and tournament produce the same
	// mispredict count on this workload the axis is probably not wired.
	base := experiments.Point(4, 5, 64)
	baseRes, err := uarch.Run(soa.Reader(), base, uarch.Options{RecordMispredicts: true})
	if err != nil {
		t.Fatalf("baseline run: %v", err)
	}
	if baseRes.Mispredicts == got.Mispredicts {
		t.Errorf("tage and baseline tournament agree on %d mispredicts (suspicious)", got.Mispredicts)
	}
}

// TestSweepPredictorAxis covers the sweep path: an explicit default preset
// is the same identity and answer as no preset, a non-default preset is a
// distinct store identity whose rows reflect the different predictor, and
// the default key bytes never mention the new field (old stored results
// stay addressable).
func TestSweepPredictorAxis(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 2})

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
	if bytes.Contains(defKey, []byte(`"pred"`)) {
		t.Errorf("default sweep key carries the pred field (old store entries would miss): %s", defKey)
	}
	tour := base
	tour.Pred = "tournament"
	tage := base
	tage.Pred = "tage"
	if k := sweepKey(resolve(tage)); bytes.Equal(k, defKey) {
		t.Error("tage sweep shares the default identity")
	} else if !bytes.Contains(k, []byte(`"pred":"tage"`)) {
		t.Errorf("tage sweep key missing the pred field: %s", k)
	}

	defPts, _ := readSweep(t, postJSON(t, ts.URL+"/v1/sweep", base))
	tourPts, _ := readSweep(t, postJSON(t, ts.URL+"/v1/sweep", tour))
	tagePts, _ := readSweep(t, postJSON(t, ts.URL+"/v1/sweep", tage))
	if len(defPts) != 1 || len(tourPts) != 1 || len(tagePts) != 1 {
		t.Fatalf("point counts %d/%d/%d, want 1 each", len(defPts), len(tourPts), len(tagePts))
	}
	if defPts[0] != tourPts[0] {
		t.Errorf("explicit tournament differs from the default:\n  %+v\n  %+v", tourPts[0], defPts[0])
	}
	if tagePts[0].Error != "" {
		t.Fatalf("tage point failed: %s", tagePts[0].Error)
	}
	if tagePts[0].Cycles == defPts[0].Cycles {
		t.Errorf("tage and tournament sweeps agree on %d cycles (suspicious)", tagePts[0].Cycles)
	}
}

// TestSweepJobPredictorIdentity: the durable-job spec journals the predictor
// and round-trips it, so a resumed job re-resolves the same machine.
func TestSweepJobPredictorIdentity(t *testing.T) {
	s := New(Options{})
	defer s.Shutdown(context.Background()) //nolint:errcheck

	spec := sweepJobSpec{
		Benchmark: "gzip", Insts: 20_000,
		Widths: []int{2}, Depths: []int{4}, ROBs: []int{64},
		Pred: "2bc-gskew", Mode: "sim",
	}
	raw := mustJSON(spec)
	var back sweepJobSpec
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Pred != "2bc-gskew" {
		t.Fatalf("journaled spec lost the predictor: %+v", back)
	}
	in, err := s.resolveSweep(back.request())
	if err != nil {
		t.Fatal(err)
	}
	want, _ := bpred.Preset("2bc-gskew")
	if in.cfg.Pred != want {
		t.Errorf("resumed job resolved predictor %+v, want %+v", in.cfg.Pred, want)
	}
}
