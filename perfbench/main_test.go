package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"intervalsim/internal/uarch"
)

// benchmarkFile is the part of BENCHMARK.json the benchmark must agree with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

type outcome struct {
	code   int
	res    result
	digest string
	stderr string
}

// runBench runs the benchmark at test size and parses what it printed.
func runBench(t *testing.T, args ...string) outcome {
	t.Helper()
	var stdout, stderr bytes.Buffer
	o := outcome{code: realMain(append([]string{"--quick", "--seconds", "0.2"}, args...), &stdout, &stderr), stderr: stderr.String()}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	for _, l := range lines {
		if d, ok := strings.CutPrefix(l, "check.digest "); ok {
			o.digest = d
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &o.res); err != nil {
		t.Fatalf("%v: last line %q is not a result: %v\nstderr: %s", args, lines[len(lines)-1], err, o.stderr)
	}
	return o
}

func TestWorkloadsPrintEveryMetricOfBenchmarkFile(t *testing.T) {
	f := readBenchmarkFile(t)
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark %v", names, workloadNames)
	}
	for _, w := range names {
		for _, traced := range []string{"0", "1"} {
			o := runBench(t, "--workload", w, "--seed", "3", "--trace", traced)
			if o.code != 0 || !o.res.Correct || o.res.Failed != 0 || o.res.Attempted < 1 {
				t.Fatalf("%s trace %s: exit %d, result %+v\nstderr: %s", w, traced, o.code, o.res, o.stderr)
			}
			want := map[string]string{}
			if traced == "0" {
				for _, m := range f.EndToEnd {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range f.PerLayer {
					want[m.Name] = m.Unit
				}
			}
			if len(o.res.Metrics) != len(want) {
				t.Errorf("%s trace %s: %d metrics, BENCHMARK.json names %d", w, traced, len(o.res.Metrics), len(want))
			}
			for name, unit := range want {
				got, ok := o.res.Metrics[name]
				if !ok || got.Unit != unit {
					t.Errorf("%s trace %s: metric %s = %+v, want unit %s", w, traced, name, got, unit)
				}
			}
			if traced == "0" {
				for name, v := range o.res.Metrics {
					if !(v.Value > 0) {
						t.Errorf("%s: end-to-end metric %s is %v", w, name, v.Value)
					}
				}
			}
		}
	}
}

func TestTracedRunWritesSpans(t *testing.T) {
	for _, w := range workloadNames {
		path := filepath.Join(t.TempDir(), "spans.json")
		o := runBench(t, "--workload", w, "--trace", "1", "--spans", path)
		if o.code != 0 {
			t.Fatalf("%s: exit %d\n%s", w, o.code, o.stderr)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var file struct{ Spans []span }
		if err := json.Unmarshal(data, &file); err != nil {
			t.Fatalf("%s: spans file: %v", w, err)
		}
		layers := 0
		for i, s := range file.Spans {
			if s.ID != int32(i) || s.Parent >= s.ID || s.End < s.Start {
				t.Fatalf("%s: malformed span %+v", w, s)
			}
			if !strings.HasPrefix(s.Name, "bench.") {
				layers++
			}
		}
		if layers == 0 {
			t.Errorf("%s: no layer spans", w)
		}
		if c := o.res.Metrics["bench.span_coverage"].Value; c < 0.9 {
			t.Errorf("%s: layer spans cover %.3f of the timed region, want >= 0.9", w, c)
		}
	}
}

func TestDigestFollowsSeed(t *testing.T) {
	for _, w := range workloadNames {
		a := runBench(t, "--workload", w, "--seed", "5")
		b := runBench(t, "--workload", w, "--seed", "5")
		c := runBench(t, "--workload", w, "--seed", "6")
		if a.digest == "" || a.digest != b.digest {
			t.Errorf("%s: seed 5 digests %q and %q differ", w, a.digest, b.digest)
		}
		if c.digest == a.digest {
			t.Errorf("%s: seeds 5 and 6 give the same digest", w)
		}
	}
}

func TestCorruptResultFailsRun(t *testing.T) {
	corrupt = func(r *uarch.Result) { r.Cycles++ }
	defer func() { corrupt = nil }()
	o := runBench(t, "--workload", "sweep-gzip", "--seed", "1")
	if o.code != 1 || o.res.Correct || o.res.Failed == 0 || o.res.Failed > o.res.Attempted {
		t.Fatalf("exit %d, result %+v; want exit 1 and failed checks", o.code, o.res)
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"--workload", "nope"},
		{"--workload", "sweep-gzip", "--trace", "2"},
		{"--workload", "sweep-gzip", "--seconds", "0"},
		{"--workload", "sweep-gzip", "--spans", "x.json"},
		{"--workload", "sweep-gzip", "extra"},
		{"--bogus"},
	} {
		var stdout, stderr bytes.Buffer
		if code := realMain(args, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q; want exit 2 and no result", args, code, stdout.String())
		}
	}
}
