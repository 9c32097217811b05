package service

import (
	"context"
	"io"
	"net/http"
	"testing"

	"intervalsim/internal/core"
	"intervalsim/internal/experiments"
	"intervalsim/internal/overlay"
	"intervalsim/internal/uarch"
	"intervalsim/internal/workload"
)

// TestSweepEndpointsAgree pins /v1/sweep, /v1/sweepjobs and /v1/batch to one
// computation. Over one small grid, in each of sim, sampled and model mode,
// every streamed sweep point, every durable-job CSV row and every batch line
// (decomposition off and on) must carry exactly the values of direct library
// calls, Path and Fallback included.
func TestSweepEndpointsAgree(t *testing.T) {
	st := openTestStore(t, t.TempDir())
	s, ts := newTestServer(t, Options{Workers: 2, Store: st})
	waitReady(t, s)

	const insts, warmup = 20_000, 4_000
	const detailed, skip = 1_000, 3_000
	widths, depths, robs := []int{2, 4}, []int{5}, []int{32, 64}
	var specs []BatchPointSpec
	for _, w := range widths {
		for _, d := range depths {
			for _, r := range robs {
				specs = append(specs, BatchPointSpec{Seq: len(specs), Width: w, Depth: d, ROB: r})
			}
		}
	}

	wc, _ := workload.SuiteConfig("gzip")
	art, err := experiments.DefaultTraceCache.SharedVia(wc, insts, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr, soa := art.Trace, art.SoA
	base := uarch.Baseline()
	ov, err := overlay.Compute(soa, base.Pred, base.Mem)
	if err != nil {
		t.Fatal(err)
	}
	run := func(cfg uarch.Config, opts uarch.Options) *uarch.Result {
		t.Helper()
		res, err := uarch.RunContext(context.Background(), soa.Reader(), cfg, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	for _, mode := range []string{"sim", "sampled", "model"} {
		t.Run(mode, func(t *testing.T) {
			sweep := SweepRequest{
				Benchmark: "gzip", Insts: insts, Warmup: warmup,
				Widths: widths, Depths: depths, ROBs: robs, Mode: mode,
			}
			batch := BatchRequest{Benchmark: "gzip", Insts: insts, Warmup: warmup, Mode: mode, Points: specs}
			if mode == "sampled" {
				sweep.SampleDetailed, sweep.SampleSkip = detailed, skip
				batch.SampleDetailed, batch.SampleSkip = detailed, skip
			}

			// The reference: direct library calls with each endpoint's options.
			wantSweep := map[int]SweepPoint{}
			wantBatch := map[int]BatchPoint{}
			wantDecomposed := map[int]BatchPoint{} // sim mode only
			var set *core.ModelSet
			if mode == "model" {
				if set, err = core.NewModelSet(soa, ov, base, robs[len(robs)-1], warmup, insts); err != nil {
					t.Fatal(err)
				}
			}
			for _, sp := range specs {
				cfg := experiments.Point(sp.Width, sp.Depth, sp.ROB)
				sw := SweepPoint{Seq: sp.Seq, Width: sp.Width, Depth: sp.Depth, ROB: sp.ROB}
				bp := BatchPoint{Seq: sp.Seq, Width: sp.Width, Depth: sp.Depth, ROB: sp.ROB}
				switch mode {
				case "sim":
					res := run(cfg, uarch.Options{RecordMispredicts: true, WarmupInsts: warmup, Overlay: ov})
					sw.IPC, sw.AvgMispredictPenalty, sw.Cycles = res.IPC(), res.AvgMispredictPenalty(), res.Cycles
					sw.Path, sw.Fallback = res.Path, res.Fallback
					bp.IPC, bp.AvgPenalty, bp.Cycles = sw.IPC, sw.AvgMispredictPenalty, sw.Cycles
					bp.Path, bp.Fallback = sw.Path, sw.Fallback

					res = run(cfg, uarch.Options{RecordMispredicts: true, RecordLoadLevels: true, WarmupInsts: warmup, Overlay: ov})
					dec, err := core.NewDecomposer(tr, res)
					if err != nil {
						t.Fatal(err)
					}
					m := core.Mean(dec.DecomposeAll())
					dp := BatchPoint{
						Seq: sp.Seq, Width: sp.Width, Depth: sp.Depth, ROB: sp.ROB,
						IPC: res.IPC(), AvgPenalty: m.Total, Cycles: res.Cycles,
						PenFrontend: m.Frontend, PenDrain: m.BaseILP, PenFU: m.FULatency,
						PenShortD: m.ShortDMiss, PenLongD: m.LongDMiss,
						Path: res.Path, Fallback: res.Fallback,
					}
					wantDecomposed[sp.Seq] = dp
				case "sampled":
					res := run(cfg, uarch.Options{SampleStartSkip: warmup, SampleDetailed: detailed, SampleSkip: skip})
					ci := res.Sample.CPI
					sw.IPC, sw.Cycles, sw.Path, sw.Fallback = res.IPC(), res.Cycles, res.Path, res.Fallback
					sw.CPI, sw.CPILo, sw.CPIHi, sw.CPIRelErr, sw.SampleUnits = ci.Mean, ci.Lower, ci.Upper, ci.RelErr, res.Sample.Units
					bp.IPC, bp.Cycles, bp.Path, bp.Fallback = sw.IPC, sw.Cycles, sw.Path, sw.Fallback
					bp.CPI, bp.CPILo, bp.CPIHi, bp.CPIRelErr, bp.SampleUnits = sw.CPI, sw.CPILo, sw.CPIHi, sw.CPIRelErr, sw.SampleUnits
				case "model":
					m, prof, err := set.For(cfg)
					if err != nil {
						t.Fatal(err)
					}
					pred, err := m.PredictCPI(prof)
					if err != nil {
						t.Fatal(err)
					}
					// The mean model penalty over the mispredict intervals.
					ivs, err := core.Segment(prof.Events, prof.Insts)
					if err != nil {
						t.Fatal(err)
					}
					var pen, k float64
					for _, iv := range ivs {
						if !iv.Final && iv.Kind == uarch.EvBranchMispredict {
							pen += m.MispredictPenalty(iv.Len() - 1)
							k++
						}
					}
					pen /= k
					n := float64(pred.Insts)
					sw.IPC, sw.AvgMispredictPenalty, sw.Path = 1/pred.CPI(), pen, "model"
					sw.CPIBase, sw.CPIBpred, sw.CPIICache = pred.Base/n, pred.Bpred/n, pred.ICache/n
					sw.CPILongData, sw.CPIVMisspec = pred.LongData/n, pred.VMisspec/n
					bp.IPC, bp.AvgPenalty, bp.Path = sw.IPC, sw.AvgMispredictPenalty, sw.Path
					bp.CPIBase, bp.CPIBpred, bp.CPIICache = sw.CPIBase, sw.CPIBpred, sw.CPIICache
					bp.CPILongData, bp.CPIVMisspec = sw.CPILongData, sw.CPIVMisspec
				}
				wantSweep[sp.Seq], wantBatch[sp.Seq] = sw, bp
			}

			// /v1/sweep: the NDJSON stream.
			points, trailer := readSweep(t, postJSON(t, ts.URL+"/v1/sweep", sweep))
			if trailer.OK != len(specs) || trailer.Failed != 0 || trailer.Mode != mode {
				t.Fatalf("sweep trailer = %+v", trailer)
			}
			for _, got := range points {
				if want := wantSweep[got.Seq]; got != want {
					t.Errorf("/v1/sweep seq %d:\n got %+v\nwant %+v", got.Seq, got, want)
				}
			}

			// /v1/sweepjobs: the durable job's CSV artifact.
			job := decodeBody[JobView](t, postJSON(t, ts.URL+"/v1/sweepjobs", sweep))
			if done := pollSweepJob(t, ts.URL, job.ID); done.Status != JobDone {
				t.Fatalf("sweep job %s: %s", done.Status, done.Error)
			}
			resp := mustGet(t, ts.URL+"/v1/sweepjobs/"+job.ID+"/csv")
			csv, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("sweep job csv: status %d", resp.StatusCode)
			}
			if want := string(buildSweepCSV(mode, wantSweep)); string(csv) != want {
				t.Errorf("/v1/sweepjobs CSV:\n--- got ---\n%s--- want ---\n%s", csv, want)
			}

			// /v1/batch: decomposition off, and on where the mode allows it.
			check := func(req BatchRequest, want map[int]BatchPoint) {
				t.Helper()
				points, trailer := readBatch(t, postJSON(t, ts.URL+"/v1/batch", req))
				if trailer.OK != len(specs) || trailer.Failed != 0 || trailer.Mode != mode {
					t.Fatalf("batch (decompose %v) trailer = %+v", req.Decompose, trailer)
				}
				for _, got := range points {
					if w := want[got.Seq]; got != w {
						t.Errorf("/v1/batch (decompose %v) seq %d:\n got %+v\nwant %+v", req.Decompose, got.Seq, got, w)
					}
				}
			}
			check(batch, wantBatch)
			if mode == "sim" {
				batch.Decompose = true
				check(batch, wantDecomposed)
			}
		})
	}
}
