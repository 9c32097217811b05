package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"intervalsim/internal/core"
	"intervalsim/internal/uarch"
	"intervalsim/internal/workload"
)

// -update regenerates the golden files instead of comparing against them.
// Run it deliberately after a change that is *supposed* to alter simulator
// numerics, and review the diff like any other code change:
//
//	go test ./internal/experiments -run TestGolden -update
var updateGolden = flag.Bool("update", false, "rewrite golden files under testdata/ instead of comparing")

// goldenParams is the pinned sizing of the golden runs: small enough that
// the full suite stays in single-digit seconds, large enough that every
// penalty contributor is exercised past warmup.
func goldenParams() Params { return Params{Insts: 60_000, Warmup: 15_000} }

// goldenMetrics renders the per-benchmark metric lines the golden test pins:
// headline counters (CPI, penalty) plus the full E5 decomposition columns.
// Values are printed with enough digits that any numeric drift — a different
// cycle count, one extra misprediction, a reordered event — changes the text.
func goldenMetrics() (string, error) {
	cfg := uarch.Baseline()
	p := goldenParams()
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "# golden metrics: baseline config, insts=%d warmup=%d\n", p.Insts, p.Warmup)
	fmt.Fprintf(&buf, "# benchmark insts cycles cpi penalty mispredicts icache shortD longD frontend baseILP fuLat shortDMiss longDMiss residual total\n")
	for _, wc := range workload.Suite() {
		tr, res, err := run(wc, cfg, p)
		if err != nil {
			return "", fmt.Errorf("%s: %w", wc.Name, err)
		}
		d, err := core.NewDecomposer(tr, res)
		if err != nil {
			return "", fmt.Errorf("%s: %w", wc.Name, err)
		}
		m := core.Mean(d.DecomposeAll())
		fmt.Fprintf(&buf, "%s %d %d %.9f %.9f %d %d %d %d %.6f %.6f %.6f %.6f %.6f %.6f %.6f\n",
			wc.Name, res.Insts, res.Cycles, res.CPI(), res.AvgMispredictPenalty(),
			res.Mispredicts, res.ICacheMisses, res.ShortDMisses, res.LongDMisses,
			m.Frontend, m.BaseILP, m.FULatency, m.ShortDMiss, m.LongDMiss, m.Residual, m.Total)
	}
	return buf.String(), nil
}

// TestGoldenMetrics fails on any numeric drift in the simulator or the
// decomposition pipeline relative to the checked-in fixtures. It is the
// contract that performance work on the hot path preserves results exactly:
// cycle counts, event counts, and the per-misprediction decomposition are
// compared digit for digit.
func TestGoldenMetrics(t *testing.T) {
	got, err := goldenMetrics()
	if err != nil {
		t.Fatal(err)
	}
	compareGolden(t, filepath.Join("testdata", "golden_metrics.txt"), got)
}

// TestGoldenE5Table pins the rendered E5 decomposition table itself, so the
// report formatting and the numbers behind the paper's central table are
// both covered.
func TestGoldenE5Table(t *testing.T) {
	var buf bytes.Buffer
	if err := E5(&buf, goldenParams()); err != nil {
		t.Fatal(err)
	}
	compareGolden(t, filepath.Join("testdata", "golden_e5.txt"), buf.String())
}

// TestGoldenA4Table pins the rendered sampled-CI table: the ratio-estimator
// intervals, unit counts, and coverage column of the sampled experiment are
// all deterministic, so any drift in the sampling machinery — phase
// scheduling, unit bookkeeping, the Student-t interval — changes the bytes.
func TestGoldenA4Table(t *testing.T) {
	var buf bytes.Buffer
	if err := A4(&buf, goldenParams()); err != nil {
		t.Fatal(err)
	}
	compareGolden(t, filepath.Join("testdata", "golden_a4.txt"), buf.String())
}

// TestGoldenA1Table pins the rendered model ablation: each refinement of
// the analytic model switched off alone, the raw whole-window critical path
// in place of scheduled resolution included, and the CPI error of each
// against the simulator. A change to what the model reads, or to how a
// model set measures it, that moves any prediction changes the bytes.
func TestGoldenA1Table(t *testing.T) {
	var buf bytes.Buffer
	if err := A1(&buf, goldenParams()); err != nil {
		t.Fatal(err)
	}
	compareGolden(t, filepath.Join("testdata", "golden_a1.txt"), buf.String())
}

// TestGoldenB1Table pins the equal-budget predictor shootout: the sized
// configurations, the replayed MPKI/penalty/IPC of every kind, and the
// budget curve are all deterministic — drift in TAGE, 2Bc-gskew, the
// storage accounting, or the budget fitter changes the bytes.
func TestGoldenB1Table(t *testing.T) {
	var buf bytes.Buffer
	if err := B1(&buf, goldenParams()); err != nil {
		t.Fatal(err)
	}
	compareGolden(t, filepath.Join("testdata", "golden_b1.txt"), buf.String())
}

// TestGoldenB2Table pins the taxa breakdown and the H2P table on the
// history-heavy workload, including the per-taxon penalty attribution from
// the cycle-level run.
func TestGoldenB2Table(t *testing.T) {
	var buf bytes.Buffer
	if err := B2(&buf, goldenParams()); err != nil {
		t.Fatal(err)
	}
	compareGolden(t, filepath.Join("testdata", "golden_b2.txt"), buf.String())
}

func compareGolden(t *testing.T, path, got string) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if string(want) == got {
		return
	}
	// Report the first diverging line to make drift reports actionable.
	wantLines := bytes.Split(want, []byte("\n"))
	gotLines := bytes.Split([]byte(got), []byte("\n"))
	for i := 0; i < len(wantLines) || i < len(gotLines); i++ {
		var w, g []byte
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if !bytes.Equal(w, g) {
			t.Fatalf("golden mismatch in %s at line %d:\n  want: %s\n  got:  %s\n(rerun with -update only if the change is intentional)",
				path, i+1, w, g)
		}
	}
	t.Fatalf("golden mismatch in %s (length only)", path)
}
