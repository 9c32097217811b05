package service

import (
	"bytes"
	"io"
	"net/http"
	"testing"

	"intervalsim/internal/uarch"
)

// TestModelSetMemo pins the reuse of analytic model sets through the
// /metrics model_cache counters: a repeated /v1/model request and a new
// width hit the memo, a new ROB, warmup, instruction budget, FU latency or
// cache latency misses it, and a model-mode /v1/sweep of the same family
// shares it.
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
	rob.Machine.ROB = 64
	model(rob)
	expect("new ROB", false)

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
		Widths: []int{2, 8}, Depths: []int{5}, ROBs: []int{64, 128},
	})
	if _, tr := readSweep(t, resp); !tr.Done || tr.OK != 4 {
		t.Fatalf("model sweep trailer %+v, want 4 points ok", tr)
	}
	expect("model-mode sweep sized to ROB 128", true)
}
