package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"intervalsim/internal/store"
	"intervalsim/internal/workload"
)

// Durable sweep jobs: POST /v1/sweepjobs admits a design-space sweep whose
// progress survives the daemon. The job's identity is content-derived
// ("s" + hash of the resolved grid spec), submission is idempotent, and
// every completed grid point is committed to a per-job journal in the
// result store before it counts as done. A SIGKILL mid-sweep therefore
// loses at most the points in flight: on restart, Server.recoverJournals
// finds the journal, replays the committed points, and resumes exactly the
// remainder. The finished artifact — a CSV in canonical grid order, byte
// identical whether or not the job was ever interrupted — is stored under
// the job's content address and served by GET /v1/sweepjobs/{id}/csv.

// sweepJobSpec is the JournalBegin payload: everything needed to resume the
// job in a fresh process. Axes are journaled in resolved form so a resume
// enumerates the identical grid even if server-side defaults change.
type sweepJobSpec struct {
	Benchmark      string           `json:"benchmark,omitempty"`
	Workload       *workload.Config `json:"workload,omitempty"`
	Insts          int              `json:"insts"`
	Warmup         uint64           `json:"warmup,omitempty"`
	Widths         []int            `json:"widths"`
	Depths         []int            `json:"depths"`
	ROBs           []int            `json:"robs"`
	Pred           string           `json:"pred,omitempty"`
	VPred          string           `json:"vpred,omitempty"`
	FetchRate      float64          `json:"fetchrate,omitempty"`
	Mode           string           `json:"mode"`
	SampleDetailed uint64           `json:"sample_detailed,omitempty"`
	SampleSkip     uint64           `json:"sample_skip,omitempty"`
	TimeoutMS      int              `json:"timeout_ms,omitempty"`
	Tenant         string           `json:"tenant,omitempty"`
	Priority       int              `json:"priority,omitempty"`
}

// request converts the journaled spec back into a resolvable request.
func (sp sweepJobSpec) request() *SweepRequest {
	return &SweepRequest{
		Benchmark:      sp.Benchmark,
		Workload:       sp.Workload,
		Insts:          sp.Insts,
		Warmup:         sp.Warmup,
		Widths:         sp.Widths,
		Depths:         sp.Depths,
		ROBs:           sp.ROBs,
		Pred:           sp.Pred,
		VPred:          sp.VPred,
		FetchRate:      sp.FetchRate,
		Mode:           sp.Mode,
		SampleDetailed: sp.SampleDetailed,
		SampleSkip:     sp.SampleSkip,
		TimeoutMS:      sp.TimeoutMS,
	}
}

// SweepJobResult is the Result document of a finished sweep job.
type SweepJobResult struct {
	Points  int    `json:"points"`
	Mode    string `json:"mode"`
	CSVPath string `json:"csv_path"`
}

// handleSweepJobSubmit admits (or joins) a durable sweep job. 503 without a
// configured store or while recovery is still replaying journals — durable
// admission during replay would race the journal scan.
func (s *Server) handleSweepJobSubmit(w http.ResponseWriter, r *http.Request) {
	if s.opts.Store == nil {
		s.reject(w, http.StatusServiceUnavailable,
			fmt.Errorf("service: durable sweep jobs need a result store (run with -store)"), outcomeRejected)
		return
	}
	if !s.ready.Load() {
		w.Header().Set("Retry-After", "1")
		s.reject(w, http.StatusServiceUnavailable,
			fmt.Errorf("service: recovering: journal replay in progress"), outcomeRejected)
		return
	}
	var req SweepRequest
	if err := decodeJSON(w, r, &req); err != nil {
		s.reject(w, http.StatusBadRequest, err, outcomeBadInput)
		return
	}
	in, err := s.resolveSweep(&req)
	if err != nil {
		s.reject(w, http.StatusBadRequest, err, outcomeBadInput)
		return
	}
	tenant, priority, err := admission(r)
	if err != nil {
		s.reject(w, http.StatusBadRequest, err, outcomeBadInput)
		return
	}
	id := jobID("s", sweepKey(in))

	// Idempotent joins, in cheapest-first order: a live/succeeded job in
	// this process, then a finished artifact from a previous process life.
	if job, ok := s.jobs.get(id); ok && job.Status != JobFailed {
		writeJSON(w, http.StatusOK, job)
		return
	}
	if _, ok, gerr := s.opts.Store.Get(csvKey(id)); gerr == nil && ok {
		s.metrics.count(outcomeCached)
		writeJSON(w, http.StatusOK, s.jobs.completeCached(id, "sweep", mustJSON(SweepJobResult{
			Points:  len(in.points),
			Mode:    in.mode,
			CSVPath: "/v1/sweepjobs/" + id + "/csv",
		})))
		return
	}
	job, created := s.jobs.createWithID(id, "sweep")
	if !created {
		writeJSON(w, http.StatusOK, job)
		return
	}

	spec := sweepJobSpec{
		Benchmark:      req.Benchmark,
		Workload:       req.Workload,
		Insts:          in.insts,
		Warmup:         in.warmup,
		Widths:         in.widths,
		Depths:         in.depths,
		ROBs:           in.robs,
		Pred:           in.pred,
		VPred:          in.vpred,
		FetchRate:      in.cfg.FetchRate,
		Mode:           in.mode,
		SampleDetailed: in.sampleDetailed,
		SampleSkip:     in.sampleSkip,
		TimeoutMS:      req.TimeoutMS,
		Tenant:         tenant,
		Priority:       priority,
	}
	j, _, _, err := s.opts.Store.OpenJournal(id)
	if err != nil {
		s.jobs.markFinished(id, outcomeError, err.Error(), 0)
		s.reject(w, http.StatusInternalServerError, err, outcomeError)
		return
	}
	if _, err := j.Append(store.JournalBegin, mustJSON(spec)); err != nil {
		j.Close()
		s.jobs.markFinished(id, outcomeError, err.Error(), 0)
		s.reject(w, http.StatusInternalServerError, err, outcomeError)
		return
	}
	go s.runSweepJob(id, j, spec, in, map[int]SweepPoint{})
	writeJSON(w, http.StatusAccepted, job)
}

// handleSweepJob reports one durable job's state. A job finished in an
// earlier process life is reconstructed from its stored artifact.
func (s *Server) handleSweepJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if job, ok := s.jobs.get(id); ok {
		writeJSON(w, http.StatusOK, job)
		return
	}
	if st := s.opts.Store; st != nil && strings.HasPrefix(id, "s") {
		if _, ok, err := st.Get(csvKey(id)); err == nil && ok {
			writeJSON(w, http.StatusOK, s.jobs.completeCached(id, "sweep", mustJSON(SweepJobResult{
				CSVPath: "/v1/sweepjobs/" + id + "/csv",
			})))
			return
		}
	}
	writeJSON(w, http.StatusNotFound, errorResponse{Error: "unknown job"})
}

// handleSweepJobCSV serves the finished CSV artifact: 200 text/csv when the
// job is done, 202 with the job document while it is still running.
func (s *Server) handleSweepJobCSV(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if st := s.opts.Store; st != nil {
		if raw, ok, err := st.Get(csvKey(id)); err == nil && ok {
			w.Header().Set("Content-Type", "text/csv")
			w.WriteHeader(http.StatusOK)
			w.Write(raw) //nolint:errcheck
			return
		}
	}
	if job, ok := s.jobs.get(id); ok {
		writeJSON(w, http.StatusAccepted, job)
		return
	}
	writeJSON(w, http.StatusNotFound, errorResponse{Error: "unknown job"})
}

// recoverJournals replays every incomplete sweep-job journal at startup and
// resumes the jobs; the server reports ready once replay (not the resumed
// work itself) is done. Runs once, from New.
func (s *Server) recoverJournals() {
	defer s.ready.Store(true)
	st := s.opts.Store
	ids, err := st.Journals()
	if err != nil {
		return
	}
	for _, id := range ids {
		j, recs, _, err := st.OpenJournal(id)
		if err != nil {
			continue
		}
		var spec sweepJobSpec
		done := make(map[int]SweepPoint, len(recs))
		haveBegin, haveDone := false, false
		for _, rec := range recs {
			switch rec.Kind {
			case store.JournalBegin:
				haveBegin = json.Unmarshal(rec.Payload, &spec) == nil
			case store.JournalPoint:
				var pt SweepPoint
				if json.Unmarshal(rec.Payload, &pt) == nil {
					done[pt.Seq] = pt
				}
			case store.JournalDone:
				haveDone = true
			}
		}
		if !haveBegin {
			// A journal torn before Begin committed names no job; discard.
			j.Close()
			st.RemoveJournal(id) //nolint:errcheck
			continue
		}
		if haveDone {
			// Finished, but the crash beat journal removal. The artifact was
			// stored before Done was journaled, so just clean up.
			j.Close()
			st.RemoveJournal(id) //nolint:errcheck
			continue
		}
		in, err := s.resolveSweep(spec.request())
		if err != nil {
			j.Close()
			st.RemoveJournal(id) //nolint:errcheck
			continue
		}
		s.jobs.createWithID(id, "sweep")
		s.resumedJobs.Add(1)
		go s.runSweepJob(id, j, spec, in, done)
	}
}

// runSweepJob drives one durable sweep to completion: every grid point not
// already journaled runs on the pool (under the job's tenant and priority),
// commits to the journal as it finishes, and once all points are in, the
// canonical CSV is stored and the journal retired. Any failed point leaves
// the journal in place — completed points stay committed and a restart (or
// an identical resubmission) retries only the remainder.
func (s *Server) runSweepJob(id string, j *store.Log, spec sweepJobSpec, in sweepInputs, done map[int]SweepPoint) {
	start := time.Now()
	st := s.opts.Store
	s.jobs.markRunning(id)
	failJob := func(err error) {
		j.Close()
		s.jobs.markFinished(id, classify(err), err.Error(), time.Since(start))
	}

	a, err := s.artifacts(&in)
	if err != nil {
		failJob(err)
		return
	}
	total := len(in.points)
	todo := in
	todo.points = nil
	for _, sp := range in.points {
		if _, ok := done[sp.Seq]; !ok {
			todo.points = append(todo.points, sp)
		}
	}
	var (
		mu     sync.Mutex // guards done, failed, and journal appends
		failed int
	)
	s.runPoints(context.Background(), spec.Tenant, spec.Priority, &todo, a, "sweepjob", func(pt BatchPoint) {
		mu.Lock()
		defer mu.Unlock()
		if pt.Error != "" {
			failed++
			return
		}
		// Commit-before-count: the point only becomes durable state once its
		// journal record is fsync'd.
		line := pt.sweepPoint()
		if _, err := j.Append(store.JournalPoint, mustJSON(line)); err != nil {
			failed++
			return
		}
		done[pt.Seq] = line
	})

	if failed > 0 {
		failJob(fmt.Errorf("service: %d of %d sweep points failed; %d committed points will resume on retry",
			failed, total, len(done)))
		return
	}

	// Artifact first, then Done, then retire the journal: every crash window
	// leaves a state recovery handles (re-putting the identical artifact is
	// idempotent; a journal with Done just gets removed).
	csv := buildSweepCSV(in.mode, done)
	if err := st.Put(csvKey(id), csv); err != nil {
		failJob(err)
		return
	}
	if _, err := j.Append(store.JournalDone, nil); err != nil {
		failJob(err)
		return
	}
	j.Close()
	st.RemoveJournal(id) //nolint:errcheck // a leftover journal is re-retired on next open
	s.jobs.setResult(id, mustJSON(SweepJobResult{
		Points:  total,
		Mode:    in.mode,
		CSVPath: "/v1/sweepjobs/" + id + "/csv",
	}))
	s.jobs.markFinished(id, outcomeOK, "", time.Since(start))
}

// buildSweepCSV renders the finished grid in canonical seq order with fixed
// format verbs — fully deterministic, so an interrupted-and-resumed job
// produces the same bytes as an uninterrupted one.
func buildSweepCSV(mode string, done map[int]SweepPoint) []byte {
	seqs := make([]int, 0, len(done))
	for seq := range done {
		seqs = append(seqs, seq)
	}
	sort.Ints(seqs)
	var b strings.Builder
	switch mode {
	case "model":
		b.WriteString("seq,width,depth,rob,ipc,avg_penalty,cpi_base,cpi_bpred,cpi_icache,cpi_longd\n")
	case "sampled":
		b.WriteString("seq,width,depth,rob,ipc,cpi,cpi_lo,cpi_hi,cpi_rel_err,units\n")
	default:
		b.WriteString("seq,width,depth,rob,ipc,avg_penalty,cycles\n")
	}
	for _, seq := range seqs {
		pt := done[seq]
		if mode == "sampled" {
			fmt.Fprintf(&b, "%d,%d,%d,%d,%.3f,%.4f,%.4f,%.4f,%.4f,%d\n",
				pt.Seq, pt.Width, pt.Depth, pt.ROB, pt.IPC,
				pt.CPI, pt.CPILo, pt.CPIHi, pt.CPIRelErr, pt.SampleUnits)
			continue
		}
		fmt.Fprintf(&b, "%d,%d,%d,%d,%.3f,%.2f", pt.Seq, pt.Width, pt.Depth, pt.ROB, pt.IPC, pt.AvgMispredictPenalty)
		if mode == "model" {
			fmt.Fprintf(&b, ",%.3f,%.3f,%.3f,%.3f", pt.CPIBase, pt.CPIBpred, pt.CPIICache, pt.CPILongData)
		} else {
			fmt.Fprintf(&b, ",%d", pt.Cycles)
		}
		b.WriteByte('\n')
	}
	return []byte(b.String())
}

// mustJSON marshals fixed-shape internal values whose encoding cannot fail.
func mustJSON(v any) []byte {
	raw, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("service: internal marshal: %v", err))
	}
	return raw
}
