package service

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"testing"

	"intervalsim/internal/uarch"
)

// TestModelSetMemo pins the reuse of analytic model sets through the
// /metrics model_cache counters: a repeated /v1/model request, a new width
// and a new ROB size hit the memo, a new warmup, instruction budget, FU
// latency or cache latency misses it, and a model-mode /v1/sweep of the
// same family shares it.
func TestModelSetMemo(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	base := ModelRequest{Benchmark: "gzip", Insts: 30_000, Warmup: 5_000, Machine: MachineSpec{Width: 4, ROB: 128}}
	model := func(req ModelRequest) []byte {
		t.Helper()
		resp := postJSON(t, ts.URL+"/v1/model", req)
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("model: status %d: %s", resp.StatusCode, body)
		}
		return body
	}
	var hits, misses uint64
	expect := func(what string, hit bool) {
		t.Helper()
		if hit {
			hits++
		} else {
			misses++
		}
		m := decodeBody[MetricsResponse](t, mustGet(t, ts.URL+"/metrics")).ModelCache
		if m.Hits != hits || m.Misses != misses {
			t.Errorf("%s: model_cache %d hits / %d misses, want %d / %d", what, m.Hits, m.Misses, hits, misses)
		}
	}

	first := model(base)
	expect("first request", false)
	if again := model(base); !bytes.Equal(again, first) {
		t.Errorf("repeated request answered\n%s\nfirst answer\n%s", again, first)
	}
	expect("repeated request", true)

	width := base
	width.Machine.Width = 8
	model(width)
	expect("new width", true)

	rob := base
	rob.Machine.ROB = 96
	model(rob)
	expect("new ROB", true)

	warm := base
	warm.Warmup = 6_000
	model(warm)
	expect("new warmup", false)

	insts := base
	insts.Insts = 31_000
	model(insts)
	expect("new insts", false)

	full := func(edit func(*uarch.Config)) ModelRequest {
		cfg := uarch.Baseline()
		cfg.ROBSize = 128
		edit(&cfg)
		req := base
		req.Machine = MachineSpec{Config: &cfg}
		return req
	}
	model(full(func(*uarch.Config) {}))
	expect("full config with the family's latencies", true)
	model(full(func(c *uarch.Config) { c.FU.IntMul.Latency++ }))
	expect("new FU latency", false)
	model(full(func(c *uarch.Config) { c.Mem.Lat.L2++ }))
	expect("new cache latency", false)

	resp := postJSON(t, ts.URL+"/v1/sweep", SweepRequest{
		Benchmark: base.Benchmark, Insts: base.Insts, Warmup: base.Warmup, Mode: "model",
		Widths: []int{2, 8}, Depths: []int{5}, ROBs: []int{64, 256},
	})
	if _, tr := readSweep(t, resp); !tr.Done || tr.OK != 4 {
		t.Fatalf("model sweep trailer %+v, want 4 points ok", tr)
	}
	expect("model-mode sweep of the family", true)
}

// TestModelMatchesModelSweep: a design point gets one model answer wherever
// it is asked for. /v1/model on one daemon, asked point by point starting
// at the smallest ROB, and a model-mode /v1/sweep on another, whose set
// profiles the largest ROB's ladder up front, must agree bit for bit at
// every point, ROB sizes off the power-of-two ladder included. A sweep
// whose ROB axis is {96, 128} must answer every point.
func TestModelMatchesModelSweep(t *testing.T) {
	const bench, insts, warmup = "mcf", 30_000, 5_000
	widths, depths, robs := []int{2, 8}, []int{3, 11}, []int{64, 96, 256}

	_, sweepTS := newTestServer(t, Options{Workers: 2})
	resp := postJSON(t, sweepTS.URL+"/v1/sweep", SweepRequest{
		Benchmark: bench, Insts: insts, Warmup: warmup, Mode: "model",
		Widths: widths, Depths: depths, ROBs: robs,
	})
	pts, tr := readSweep(t, resp)
	if !tr.Done || tr.OK != len(widths)*len(depths)*len(robs) {
		t.Fatalf("model sweep trailer %+v, want every point ok", tr)
	}

	_, modelTS := newTestServer(t, Options{Workers: 2})
	bySeq := map[int]SweepPoint{}
	for _, pt := range pts {
		bySeq[pt.Seq] = pt
	}
	for _, sp := range Grid(widths, depths, robs) {
		got := decodeBody[ModelResult](t, postJSON(t, modelTS.URL+"/v1/model", ModelRequest{
			Benchmark: bench, Insts: insts, Warmup: warmup,
			Machine: MachineSpec{Width: sp.Width, Depth: sp.Depth, ROB: sp.ROB},
		}))
		want, ok := bySeq[sp.Seq]
		if !ok || want.Error != "" {
			t.Fatalf("w%d d%d r%d: sweep line %+v", sp.Width, sp.Depth, sp.ROB, want)
		}
		if got.IPC != want.IPC || got.AvgMispredictPenalty != want.AvgMispredictPenalty ||
			got.CPIBase != want.CPIBase || got.CPIBpred != want.CPIBpred ||
			got.CPIICache != want.CPIICache || got.CPILongData != want.CPILongData ||
			got.CPIVMisspec != want.CPIVMisspec {
			t.Errorf("w%d d%d r%d: /v1/model %+v, /v1/sweep %+v", sp.Width, sp.Depth, sp.ROB, got, want)
		}
	}

	_, ts := newTestServer(t, Options{Workers: 2})
	resp = postJSON(t, ts.URL+"/v1/sweep", SweepRequest{
		Benchmark: bench, Insts: insts, Warmup: warmup, Mode: "model",
		Widths: []int{4}, Depths: []int{5}, ROBs: []int{96, 128},
	})
	if pts, tr := readSweep(t, resp); !tr.Done || tr.OK != 2 {
		t.Fatalf("model sweep over ROBs {96, 128}: trailer %+v, lines %+v", tr, pts)
	}
}

// TestModelSweepKeyVersion: model-mode sweep identities carry the model
// version and sampled-mode ones the sampled version, and sim identities
// carry neither, so a change of one engine's answers re-keys only its own
// results.
func TestModelSweepKeyVersion(t *testing.T) {
	s := New(Options{})
	defer s.Shutdown(context.Background()) //nolint:errcheck
	for _, mode := range []string{"sim", "sampled", "model"} {
		req := SweepRequest{Benchmark: "gzip", Insts: 20_000, Mode: mode}
		if mode == "sampled" {
			req.SampleDetailed, req.SampleSkip = 1_000, 3_000
		}
		in, err := s.resolveSweep(&req)
		if err != nil {
			t.Fatal(err)
		}
		key := sweepKey(in)
		for _, v := range []struct{ mode, field string }{{"model", "model_v"}, {"sampled", "sampled_v"}} {
			want := []byte(`"` + v.field + `":1`)
			if mode != v.mode {
				want = []byte(v.field)
			}
			if got := bytes.Contains(key, want); got != (mode == v.mode) {
				t.Errorf("%s sweep key contains %s: %v: %s", mode, want, got, key)
			}
		}
	}
}
