package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"testing"

	"intervalsim/internal/uarch"
)

// FuzzRequestAdmission feeds arbitrary bytes through the JSON admission of
// /v1/simulate (and /v1/model), /v1/sweep (and /v1/sweepjobs) and /v1/batch:
// decodeJSON, then the endpoint's resolver. Nothing is simulated. Admission
// must never panic, every rejection must wrap errBadRequest (so it maps to
// HTTP 400), and every accepted request must sit inside the server's limits
// and the admission bounds on size-bearing fields.
func FuzzRequestAdmission(f *testing.F) {
	for _, seed := range []string{
		`{"benchmark":"gzip","insts":20000,"warmup":4000,"machine":{"width":4,"depth":7,"rob":128}}`,
		`{"workload":{"Name":"w","Seed":1,"Regions":2,"BlocksPerRegion":4,"BlockSize":{"Min":2,"Max":6},"LoopTrip":{"Min":2,"Max":12},"LoadFrac":0.2,"DataFootprint":65536},"insts":5000,"machine":{"pred":"tage","vpred":"stride","fetchrate":0.5}}`,
		`{"benchmark":"gzip","insts":20000,"widths":[2,4],"depths":[5],"robs":[32,64]}`,
		`{"benchmark":"gzip","insts":20000,"warmup":4000,"mode":"sampled","sample_detailed":1000,"sample_skip":3000}`,
		`{"benchmark":"gzip","mode":"model","robs":[32,64],"pred":"gshare"}`,
		`{"benchmark":"gzip","insts":20000,"decompose":true,"points":[{"seq":0,"width":2,"depth":3,"rob":64}]}`,
		`{"benchmark":"gzip","mode":"sampled","sample_detailed":1000,"sample_skip":3000,"points":[{"seq":1,"width":4,"depth":7,"rob":128}]}`,
		`{"benchmark":"gzip","mode":"model","points":[{"seq":2,"width":8,"depth":11,"rob":256}]}`,
	} {
		f.Add([]byte(seed))
	}
	full := uarch.Baseline()
	raw, err := json.Marshal(SimulateRequest{Benchmark: "mcf", Machine: MachineSpec{Config: &full}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	for _, rq := range oversizedRequests(f) {
		f.Add([]byte(rq.body))
	}
	for _, body := range append(sampleUnitBodies.at, sampleUnitBodies.past...) {
		f.Add([]byte(body))
	}
	// testdata/fuzz/FuzzRequestAdmission holds more seeds: bodies of modes
	// and fields the API no longer has, and inputs that once panicked.
	s := &Server{opts: Options{}.withDefaults()}

	f.Fuzz(func(t *testing.T, body []byte) {
		decode := func(v any) error {
			r := httptest.NewRequest("POST", "/", bytes.NewReader(body))
			return decodeJSON(httptest.NewRecorder(), r, v)
		}
		admitted := func(what string, err error) bool {
			if err != nil && !errors.Is(err, errBadRequest) {
				t.Fatalf("%s: rejection %q does not map to 400", what, err)
			}
			return err == nil
		}
		within := func(what string, bs []bound) {
			for _, b := range bs {
				if b.v > b.limit {
					t.Fatalf("%s: admitted %s %d past its bound %d", what, b.field, b.v, b.limit)
				}
			}
		}
		checkSim := func(what string, in simInputs) {
			if in.insts < 1000 || in.insts > maxInsts || in.warmup >= uint64(in.insts) {
				t.Fatalf("%s: admitted insts %d / warmup %d", what, in.insts, in.warmup)
			}
			if in.timeout <= 0 || in.timeout > maxTimeout {
				t.Fatalf("%s: admitted timeout %v", what, in.timeout)
			}
			if err := in.cfg.Validate(); err != nil {
				t.Fatalf("%s: admitted an invalid machine: %v", what, err)
			}
			within(what, configBounds(&in.cfg))
			within(what, workloadBounds(&in.wc))
		}
		checkSweep := func(what string, in sweepInputs) {
			checkSim(what, in.simInputs)
			if len(in.points) == 0 || len(in.points) > maxSweepPoints {
				t.Fatalf("%s: admitted %d points", what, len(in.points))
			}
			for _, sp := range in.points {
				if sp.Width <= 0 || sp.Depth <= 0 || sp.ROB <= 0 {
					t.Fatalf("%s: admitted point %+v", what, sp)
				}
				within(what, knobBounds("point ", sp.Width, sp.Depth, sp.ROB))
			}
			switch in.mode {
			case "sim", "model":
			case "sampled":
				if in.sampleDetailed == 0 || in.sampleSkip == 0 {
					t.Fatalf("%s: admitted sampled mode without phases", what)
				}
				if units := sampleUnits(uint64(in.insts)-in.warmup, in.sampleDetailed, in.sampleSkip); units > maxSampleUnits {
					t.Fatalf("%s: admitted %d sample units past their bound %d", what, units, maxSampleUnits)
				}
			default:
				t.Fatalf("%s: admitted mode %q", what, in.mode)
			}
			if in.decompose && in.mode != "sim" {
				t.Fatalf("%s: admitted decompose in %s mode", what, in.mode)
			}
		}

		var sim SimulateRequest
		if err := decode(&sim); admitted("simulate decode", err) {
			if in, err := s.resolveSimulate(&sim); admitted("simulate", err) {
				checkSim("simulate", in)
			}
		}
		var sweep SweepRequest
		if err := decode(&sweep); admitted("sweep decode", err) {
			if in, err := s.resolveSweep(&sweep); admitted("sweep", err) {
				checkSweep("sweep", in)
			}
		}
		var batch BatchRequest
		if err := decode(&batch); admitted("batch decode", err) {
			if in, err := s.resolveBatch(&batch); admitted("batch", err) {
				checkSweep("batch", in)
			}
		}
	})
}
