package main

import (
	"bytes"
	"context"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"intervalsim/internal/experiments"
	"intervalsim/internal/overlay"
	"intervalsim/internal/service"
	"intervalsim/internal/uarch"
	"intervalsim/internal/workload"
)

func TestPointConfigsValid(t *testing.T) {
	for _, width := range []int{2, 4, 8} {
		for _, depth := range []int{3, 7, 11} {
			for _, rob := range []int{64, 128, 256} {
				cfg := experiments.Point(width, depth, rob)
				if err := cfg.Validate(); err != nil {
					t.Errorf("point(%d,%d,%d): %v", width, depth, rob, err)
				}
				if cfg.DispatchWidth != width || cfg.FrontendDepth != depth || cfg.ROBSize != rob {
					t.Errorf("point(%d,%d,%d) mis-set: %+v", width, depth, rob, cfg)
				}
			}
		}
	}
}

func TestSweepRowShape(t *testing.T) {
	// One tiny point through the same plumbing run() uses: the decomposition
	// columns must be available at every grid point.
	wc, _ := workload.SuiteConfig("gzip")
	cfg := experiments.Point(2, 3, 64)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	_ = wc
	if !strings.Contains(cfg.Name, "w2-d3-r64") {
		t.Errorf("point name = %q", cfg.Name)
	}
	if cfg.FU.IntALU.Count != 2 {
		t.Errorf("ALU count not scaled with width: %d", cfg.FU.IntALU.Count)
	}
	wide := experiments.Point(8, 3, 64)
	if wide.FU.MemPort.Count != 4 || wide.FU.IntMul.Count != 4 {
		t.Errorf("wide point FU scaling wrong: %+v", wide.FU)
	}
	if uarch.Baseline().FU.MemPort.Count != 2 {
		t.Error("baseline mutated by point()")
	}
}

// sweepArgs shrinks the per-point simulation so the full 27-point grid runs
// in test time.
func sweepArgs(extra ...string) []string {
	return append([]string{"-bench", "gzip", "-insts", "12000", "-warmup", "2000"}, extra...)
}

// TestSimModeReplaysOverlay pins satellite behavior of the overlay rollout:
// a timing-only sweep must run every point on the overlay-replay fast path
// and say so on stderr, with no fallbacks reported.
func TestSimModeReplaysOverlay(t *testing.T) {
	var out, errb bytes.Buffer
	if code := realMain(sweepArgs("-j", "4"), &out, &errb); code != 0 {
		t.Fatalf("exit = %d (stderr: %s)", code, errb.String())
	}
	se := errb.String()
	if !strings.Contains(se, "simulator paths: 27×soa+overlay") {
		t.Errorf("stderr missing overlay path summary: %q", se)
	}
	if strings.Contains(se, "fallback:") {
		t.Errorf("unexpected fallback reported: %q", se)
	}
	if !strings.Contains(se, "overlay cache:") {
		t.Errorf("stderr missing overlay cache stats: %q", se)
	}
}

// TestModelMode exercises the analytic engine: full grid, model CSV schema,
// deterministic under parallelism, and physically sensible outputs.
func TestModelMode(t *testing.T) {
	render := func(j string) string {
		var out, errb bytes.Buffer
		if code := realMain(sweepArgs("-mode", "model", "-j", j), &out, &errb); code != 0 {
			t.Fatalf("-j %s exit = %d (stderr: %s)", j, code, errb.String())
		}
		return out.String()
	}
	serial := render("1")
	if parallel := render("8"); serial != parallel {
		t.Fatalf("model-mode CSV not deterministic:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
	}
	lines := strings.Split(strings.TrimSpace(serial), "\n")
	if len(lines) != 1+27 {
		t.Fatalf("CSV has %d lines, want 28:\n%s", len(lines), serial)
	}
	if lines[0] != "width,depth,rob,ipc,avg_penalty,cpi_base,cpi_bpred,cpi_icache,cpi_longd" {
		t.Fatalf("model CSV header = %q", lines[0])
	}
	for _, l := range lines[1:] {
		cols := strings.Split(l, ",")
		if len(cols) != 9 {
			t.Fatalf("row %q has %d columns", l, len(cols))
		}
		if cols[3] == "0.000" {
			t.Errorf("row %q predicts zero IPC", l)
		}
	}
}

func TestModelModeBrokenPointFailSoft(t *testing.T) {
	testPointHook = func(cfg *uarch.Config) {
		if cfg.Name == "w4-d7-r128" {
			cfg.ROBSize = -1
		}
	}
	defer func() { testPointHook = nil }()
	var out, errb bytes.Buffer
	if code := realMain(sweepArgs("-mode", "model", "-retries", "2"), &out, &errb); code != 1 {
		t.Fatalf("exit = %d, want 1 (stderr: %s)", code, errb.String())
	}
	if lines := strings.Count(out.String(), "\n"); lines != 1+26 {
		t.Fatalf("CSV has %d lines, want 27:\n%s", lines, out.String())
	}
	// Model errors are deterministic: retrying them wastes the budget.
	if !strings.Contains(errb.String(), "FAIL w4-d7-r128 (attempts 1)") {
		t.Fatalf("stderr missing a single-attempt failure: %q", errb.String())
	}
}

func TestUsageErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if code := realMain([]string{"-bench", "nonesuch"}, &out, &errb); code != 2 {
		t.Fatalf("unknown benchmark exit = %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "unknown benchmark") {
		t.Fatalf("stderr = %q", errb.String())
	}
	errb.Reset()
	if code := realMain([]string{"-definitely-not-a-flag"}, &out, &errb); code != 2 {
		t.Fatalf("bad flag exit = %d, want 2", code)
	}
	errb.Reset()
	if code := realMain([]string{"positional"}, &out, &errb); code != 2 {
		t.Fatalf("positional arg exit = %d, want 2", code)
	}
	errb.Reset()
	if code := realMain([]string{"-mode", "oracular"}, &out, &errb); code != 2 {
		t.Fatalf("unknown mode exit = %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "unknown mode") {
		t.Fatalf("stderr = %q", errb.String())
	}
}

// TestPredFlag pins the predictor axis: an unknown preset is a usage error
// that names the alternatives; -pred tournament (the baseline) is
// byte-identical to the default; -pred tage changes the rows while every
// point still rides the overlay-replay fast path (the overlay must follow
// the selected predictor).
func TestPredFlag(t *testing.T) {
	var out, errb bytes.Buffer
	if code := realMain(sweepArgs("-pred", "oracle-9000"), &out, &errb); code != 2 {
		t.Fatalf("unknown preset exit = %d, want 2 (stderr: %s)", code, errb.String())
	}
	if se := errb.String(); !strings.Contains(se, "unknown predictor preset") || !strings.Contains(se, "tage") {
		t.Fatalf("stderr = %q, want preset listing", se)
	}

	render := func(pred string) (string, string) {
		var out, errb bytes.Buffer
		args := sweepArgs("-j", "4")
		if pred != "" {
			args = sweepArgs("-j", "4", "-pred", pred)
		}
		if code := realMain(args, &out, &errb); code != 0 {
			t.Fatalf("-pred %q exit = %d (stderr: %s)", pred, code, errb.String())
		}
		return out.String(), errb.String()
	}
	def, _ := render("")
	tour, _ := render("tournament")
	if def != tour {
		t.Errorf("-pred tournament differs from the default sweep:\n--- default ---\n%s\n--- tournament ---\n%s", def, tour)
	}
	tage, tageErr := render("tage")
	if tage == def {
		t.Errorf("-pred tage produced the baseline CSV (axis not wired?)")
	}
	if !strings.Contains(tageErr, "simulator paths: 27×soa+overlay") {
		t.Errorf("tage sweep left the overlay fast path: %q", tageErr)
	}
}

// TestBrokenPointFailSoft injects one deliberately broken design point into
// the grid: the sweep must complete every other point, emit their CSV rows,
// report the failure on stderr, and exit nonzero.
func TestBrokenPointFailSoft(t *testing.T) {
	testPointHook = func(cfg *uarch.Config) {
		if cfg.Name == "w4-d7-r128" {
			cfg.ROBSize = -1 // fails Validate with ErrBadConfig
		}
	}
	defer func() { testPointHook = nil }()

	var out, errb bytes.Buffer
	code := realMain(sweepArgs("-j", "4", "-retries", "2"), &out, &errb)
	if code != 1 {
		t.Fatalf("exit = %d, want 1 (stderr: %s)", code, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 1+26 { // header + 26 surviving grid points
		t.Fatalf("CSV has %d lines, want 27:\n%s", len(lines), out.String())
	}
	for _, l := range lines[1:] {
		if strings.HasPrefix(l, "4,7,128,") {
			t.Fatalf("broken point emitted a row: %q", l)
		}
	}
	se := errb.String()
	if !strings.Contains(se, "FAIL w4-d7-r128") || !strings.Contains(se, "invalid configuration") {
		t.Fatalf("stderr missing failure summary: %q", se)
	}
	// An invalid configuration is permanent: never retried.
	if !strings.Contains(se, "FAIL w4-d7-r128 (attempts 1)") {
		t.Fatalf("invalid configuration was retried: %q", se)
	}
}

// TestParallelDeterminism asserts the acceptance criterion for -j: the CSV
// from a parallel sweep is byte-identical (rows in grid order) to the
// serial run's.
func TestParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full-grid sweep skipped in -short mode")
	}
	render := func(j string) string {
		var out, errb bytes.Buffer
		if code := realMain(sweepArgs("-j", j), &out, &errb); code != 0 {
			t.Fatalf("-j %s exit = %d (stderr: %s)", j, code, errb.String())
		}
		return out.String()
	}
	serial := render("1")
	parallel := render("8")
	if serial != parallel {
		t.Fatalf("-j 8 CSV differs from serial run:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
	}
	if lines := strings.Count(serial, "\n"); lines != 28 { // header + 27 rows
		t.Fatalf("CSV has %d lines, want 28", lines)
	}
}

// TestSampledMode exercises the sampling engine end to end: sampled CSV
// schema, deterministic under parallelism, well-ordered confidence bounds,
// no overlay computed (sampled runs bypass replay by design) and no
// fallback reported (sampled runs read the precomputed dependences).
func TestSampledMode(t *testing.T) {
	args := func(j string) []string {
		return sweepArgs("-mode", "sampled", "-sample-detailed", "500", "-sample-skip", "1500", "-j", j)
	}
	render := func(j string) (string, string) {
		var out, errb bytes.Buffer
		if code := realMain(args(j), &out, &errb); code != 0 {
			t.Fatalf("-j %s exit = %d (stderr: %s)", j, code, errb.String())
		}
		return out.String(), errb.String()
	}
	beforeHits, beforeMisses := overlay.Shared.Stats()
	serial, se := render("1")
	if parallel, _ := render("8"); serial != parallel {
		t.Fatalf("sampled-mode CSV not deterministic:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
	}
	lines := strings.Split(strings.TrimSpace(serial), "\n")
	if len(lines) != 1+27 {
		t.Fatalf("CSV has %d lines, want 28:\n%s", len(lines), serial)
	}
	if lines[0] != "width,depth,rob,ipc,cpi,cpi_lo,cpi_hi,cpi_rel_err,units" {
		t.Fatalf("sampled CSV header = %q", lines[0])
	}
	for _, l := range lines[1:] {
		cols := strings.Split(l, ",")
		if len(cols) != 9 {
			t.Fatalf("row %q has %d columns", l, len(cols))
		}
		cpi, lo, hi := parseF(t, cols[4]), parseF(t, cols[5]), parseF(t, cols[6])
		if !(lo <= cpi && cpi <= hi) || cpi <= 0 {
			t.Errorf("row %q interval out of order", l)
		}
		if units := parseF(t, cols[8]); units < 4 || units > 6 {
			t.Errorf("row %q units = %v, want about (12000-2000)/2000 = 5", l, units)
		}
	}
	// Every point runs live on the packed trace (the sampled path rejects
	// replay) with nothing bypassed, and no overlay is ever computed for
	// the grid.
	if !strings.Contains(se, "simulator paths: 27×soa\n") || strings.Contains(se, "fallback") {
		t.Errorf("stderr = %q, want 27×soa live runs and no fallback", se)
	}
	// The shared overlay cache is process-global, so compare against the
	// pre-test snapshot: both sampled sweeps must leave it untouched.
	if hits, misses := overlay.Shared.Stats(); hits != beforeHits || misses != beforeMisses {
		t.Errorf("sampled sweeps touched the overlay cache: %d hits %d misses, was %d/%d",
			hits, misses, beforeHits, beforeMisses)
	}
}

func parseF(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return v
}

// TestEndpointsModeMatchesInProcess is the distributed acceptance gate at
// the command level: `sweep -endpoints` sharded across two daemons must
// write byte-identical CSV to the in-process sweep of the same grid, in sim
// and model mode, and with predictor, value-predictor and fetch-rate presets.
// Both paths evaluate points with service.EvalPoint and render them with
// cluster.CSVSink, so what this guards is the artifact resolution each path
// does on its own: the presets, the workload's value stream, and the model
// set sized to the grid's largest ROB.
func TestEndpointsModeMatchesInProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("full-grid distributed sweep skipped in -short mode")
	}
	boot := func() *httptest.Server {
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
	a, b := boot(), boot()

	presets := []string{"-pred", "tage", "-vpred", "stride", "-fetchrate", "0.5"}
	local := make(map[string]string)
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"sim", nil},
		{"model", []string{"-mode", "model"}},
		{"presets-sim", presets},
		{"presets-model", append([]string{"-mode", "model"}, presets...)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out, errb bytes.Buffer
			if code := realMain(append(sweepArgs(tc.args...), "-j", "4"), &out, &errb); code != 0 {
				t.Fatalf("in-process exit = %d (stderr: %s)", code, errb.String())
			}
			var dist, distErr bytes.Buffer
			if code := realMain(append(sweepArgs(tc.args...), "-endpoints", a.URL+","+b.URL), &dist, &distErr); code != 0 {
				t.Fatalf("distributed exit = %d (stderr: %s)", code, distErr.String())
			}
			if out.String() != dist.String() {
				t.Errorf("distributed CSV differs from in-process:\n--- local ---\n%s--- distributed ---\n%s",
					out.String(), dist.String())
			}
			if !strings.Contains(distErr.String(), "cluster: 27 points (27 ok, 0 failed)") {
				t.Errorf("stderr missing fleet summary: %q", distErr.String())
			}
			local[tc.name] = out.String()
		})
	}
	// The presets must reach both paths: matching CSVs that equal the
	// preset-free ones would show only that both ignored them.
	for _, mode := range []string{"sim", "model"} {
		if local["presets-"+mode] == local[mode] {
			t.Errorf("%s mode: -pred tage -vpred stride -fetchrate 0.5 left the CSV unchanged", mode)
		}
	}
}

// TestEndpointsSampledMatchesInProcess extends the distributed gate to the
// sampled engine: a sampled fleet sweep merges to the in-process sampled
// CSV, confidence columns included.
func TestEndpointsSampledMatchesInProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("full-grid distributed sweep skipped in -short mode")
	}
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

	run := func(args []string) string {
		var out, errb bytes.Buffer
		if code := realMain(args, &out, &errb); code != 0 {
			t.Fatalf("%v exit = %d (stderr: %s)", args, code, errb.String())
		}
		return out.String()
	}
	sampledArgs := []string{"-mode", "sampled", "-sample-detailed", "500", "-sample-skip", "1500"}
	local := run(sweepArgs(append(sampledArgs, "-j", "4")...))
	dist := run(sweepArgs(append(sampledArgs, "-endpoints", ts.URL)...))
	if dist != local {
		t.Errorf("distributed sampled CSV differs from in-process:\n--- local ---\n%s--- distributed ---\n%s", local, dist)
	}
}
