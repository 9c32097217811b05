package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestQuickRun exercises the full -quick path end to end: it must produce a
// valid JSON report covering every benchmark in the quick matrix, with sane
// metric values.
func TestQuickRun(t *testing.T) {
	out := filepath.Join(t.TempDir(), "bench.json")
	var stdout, stderr bytes.Buffer
	if code := realMain([]string{"-quick", "-runs", "1", "-o", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, stderr.String())
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep benchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if !rep.Quick {
		t.Error("quick flag not recorded")
	}
	benches, _ := matrix(true)
	if want := len(benches); len(rep.Points) != want {
		t.Fatalf("got %d points, want %d", len(rep.Points), want)
	}
	for _, pt := range rep.Points {
		if pt.InstPerS <= 0 {
			t.Errorf("%s/%s: non-positive throughput %f", pt.Benchmark, pt.Path, pt.InstPerS)
		}
		if pt.CPI <= 0 || pt.CPI > 100 {
			t.Errorf("%s/%s: implausible CPI %f", pt.Benchmark, pt.Path, pt.CPI)
		}
		if pt.Insts == 0 || pt.Cycles == 0 {
			t.Errorf("%s/%s: empty run (insts=%d cycles=%d)", pt.Benchmark, pt.Path, pt.Insts, pt.Cycles)
		}
		if pt.Records <= 0 || pt.DecomposeMS <= 0 {
			t.Errorf("%s/%s: decomposition not measured (%d records in %v ms)", pt.Benchmark, pt.Path, pt.Records, pt.DecomposeMS)
		}
	}
	// The sweep metric: all three engines timed, replay cycle-exactness
	// enforced inside measureSweep, overlay computed exactly once.
	sw := rep.Sweep
	if sw == nil {
		t.Fatal("report has no sweep section")
	}
	if sw.Points != 4 || sw.Benchmark == "" {
		t.Errorf("quick sweep shape wrong: %+v", sw)
	}
	if sw.LiveSeconds <= 0 || sw.ReplaySeconds <= 0 || sw.ModelSeconds <= 0 || sw.SampledSeconds <= 0 {
		t.Errorf("sweep timings not recorded: %+v", sw)
	}
	// The sampled engine must report its statistical accounting; at least
	// 90% interval coverage is enforced inside measureSweep itself.
	if sw.SampledMinUnits == 0 || sw.SampledCovered == 0 || sw.SampledDetailed == 0 || sw.SampledSkip == 0 {
		t.Errorf("sampled sweep accounting missing: %+v", sw)
	}
	if sw.ModelMeanErr < 0 || sw.ModelMeanErr > 0.25 {
		t.Errorf("model mean CPI error out of range: %f", sw.ModelMeanErr)
	}
	// The cluster fleet block: honest core accounting per fleet. Skipped
	// fleets must say why; timed fleets must record both cold timings and
	// must have computed each benchmark's overlay at least once fleet-wide.
	cl := rep.Cluster
	if cl == nil {
		t.Fatal("report has no cluster section")
	}
	if len(cl.Benchmarks) != 2 || cl.Cores <= 0 || len(cl.Fleets) == 0 {
		t.Fatalf("cluster shape wrong: %+v", cl)
	}
	for _, fl := range cl.Fleets {
		if fl.Skipped {
			if fl.SkipReason == "" || fl.Daemons <= cl.Cores {
				t.Errorf("fleet %d skipped without honest reason: %+v", fl.Daemons, fl)
			}
			continue
		}
		if fl.CoresPerDaemon < 1 || fl.EffectiveCores != fl.CoresPerDaemon*fl.Daemons || fl.EffectiveCores > cl.Cores {
			t.Errorf("fleet %d core accounting wrong: %+v", fl.Daemons, fl)
		}
		if fl.Seconds <= 0 || fl.NoShareSeconds <= 0 {
			t.Errorf("fleet %d timings not recorded: %+v", fl.Daemons, fl)
		}
		if fl.OverlaysComputed+fl.OverlayFills < uint64(len(cl.Benchmarks)) {
			t.Errorf("fleet %d: %d overlays computed + %d filled, want >= %d benchmarks",
				fl.Daemons, fl.OverlaysComputed, fl.OverlayFills, len(cl.Benchmarks))
		}
	}
}

func TestUsageErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := realMain([]string{"extra-arg"}, &stdout, &stderr); code != 2 {
		t.Errorf("positional arg: exit code %d, want 2", code)
	}
	if code := realMain([]string{"-nonsense"}, &stdout, &stderr); code != 2 {
		t.Errorf("bad flag: exit code %d, want 2", code)
	}
}
