package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"intervalsim/internal/core"
	"intervalsim/internal/experiments"
	"intervalsim/internal/service"
	"intervalsim/internal/uarch"
	"intervalsim/internal/workload"
)

// bootDaemon starts an in-process intervalsimd behind httptest.
func bootDaemon(t *testing.T) *httptest.Server {
	t.Helper()
	s := service.New(service.Options{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	})
	return ts
}

// TestDryRunPrintsPlanWithoutDispatching: -dry-run must render the shard
// plan and exit 0 even though the named endpoints don't exist — nothing may
// be contacted.
func TestDryRunPrintsPlanWithoutDispatching(t *testing.T) {
	var out, errb bytes.Buffer
	code := realMain([]string{
		"-endpoints", "nowhere-a:9,nowhere-b:9",
		"-bench", "gzip,gcc",
		"-widths", "2", "-depths", "3", "-robs", "64,128",
		"-dry-run",
	}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit = %d (stderr: %s)", code, errb.String())
	}
	plan := out.String()
	if !strings.Contains(plan, "plan: 4 points, 4 batches, 2 benchmarks, 2 endpoints") {
		t.Errorf("plan summary missing:\n%s", plan)
	}
	// Workload affinity: each benchmark pinned to one node of the pair.
	if !strings.Contains(plan, "gzip") || !strings.Contains(plan, "gcc") ||
		!strings.Contains(plan, "nowhere-a:9") || !strings.Contains(plan, "nowhere-b:9") {
		t.Errorf("plan missing benches/endpoints:\n%s", plan)
	}
}

func TestUsageErrors(t *testing.T) {
	cases := [][]string{
		{},                                        // no endpoints
		{"-endpoints", "a", "-bench", "doom"},     // unknown benchmark
		{"-endpoints", "a", "-mode", "oracular"},  // bad mode
		{"-endpoints", "a", "-widths", "0"},       // bad axis value
		{"-endpoints", "a", "-format", "parquet"}, // bad format
		{"-endpoints", "a", "stray-arg"},          // positional junk
	}
	for _, args := range cases {
		var out, errb bytes.Buffer
		if code := realMain(args, &out, &errb); code != 2 {
			t.Errorf("args %q: exit = %d, want 2 (stderr: %s)", args, code, errb.String())
		}
	}
}

func TestVersionFlag(t *testing.T) {
	var out, errb bytes.Buffer
	if code := realMain([]string{"-version"}, &out, &errb); code != 0 {
		t.Fatalf("exit = %d", code)
	}
	if !strings.HasPrefix(out.String(), "sweepctl ") {
		t.Errorf("version output %q", out.String())
	}
}

// TestDistributedSweepMatchesReference drives sweepctl end to end against
// two real daemons and byte-compares the merged CSV with a directly computed
// single-process reference.
func TestDistributedSweepMatchesReference(t *testing.T) {
	a, b := bootDaemon(t), bootDaemon(t)

	const insts, warmup = 15_000, 3_000
	var out, errb bytes.Buffer
	code := realMain([]string{
		"-endpoints", a.URL + "," + b.URL,
		"-bench", "gzip",
		"-insts", fmt.Sprint(insts), "-warmup", fmt.Sprint(warmup),
		"-widths", "2,4", "-depths", "3", "-robs", "64,128",
		"-batch", "1",
	}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit = %d (stderr: %s)", code, errb.String())
	}

	wc, _ := workload.SuiteConfig("gzip")
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
	var want strings.Builder
	want.WriteString("width,depth,rob,ipc,avg_penalty,penalty_frontend,penalty_drain,penalty_fu,penalty_shortd,penalty_longd\n")
	for _, w := range []int{2, 4} {
		for _, r := range []int{64, 128} {
			cfg := experiments.Point(w, 3, r)
			res, err := uarch.Run(soa.Reader(), cfg, uarch.Options{
				RecordMispredicts: true, RecordLoadLevels: true, WarmupInsts: warmup, Overlay: ov,
			})
			if err != nil {
				t.Fatal(err)
			}
			dec, err := core.NewDecomposer(tr, res)
			if err != nil {
				t.Fatal(err)
			}
			m := core.Mean(dec.DecomposeAll())
			fmt.Fprintf(&want, "%d,%d,%d,%.3f,%.2f,%.2f,%.2f,%.2f,%.2f,%.2f\n",
				w, 3, r, res.IPC(), m.Total, m.Frontend, m.BaseILP, m.FULatency, m.ShortDMiss, m.LongDMiss)
		}
	}
	if out.String() != want.String() {
		t.Errorf("distributed CSV differs from reference:\ngot:\n%swant:\n%s", out.String(), want.String())
	}
	if !strings.Contains(errb.String(), "cluster: 4 points (4 ok, 0 failed)") {
		t.Errorf("stderr missing fleet summary:\n%s", errb.String())
	}
}

// TestNDJSONFormat: -format ndjson emits one parseable object per point,
// in canonical order, with the benchmark named on every row.
func TestNDJSONFormat(t *testing.T) {
	a := bootDaemon(t)
	var out, errb bytes.Buffer
	code := realMain([]string{
		"-endpoints", a.URL,
		"-bench", "gzip",
		"-insts", "10000", "-warmup", "2000",
		"-widths", "2,4", "-depths", "3", "-robs", "64",
		"-format", "ndjson",
	}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit = %d (stderr: %s)", code, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("rows = %d, want 2:\n%s", len(lines), out.String())
	}
	for i, line := range lines {
		var row struct {
			Bench string  `json:"bench"`
			Seq   int     `json:"seq"`
			Width int     `json:"width"`
			IPC   float64 `json:"ipc"`
		}
		if err := json.Unmarshal([]byte(line), &row); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if row.Bench != "gzip" || row.Seq != i || row.IPC <= 0 {
			t.Errorf("line %d = %+v, want gzip seq %d with positive ipc", i, row, i)
		}
	}
}
