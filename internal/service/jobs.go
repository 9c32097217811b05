package service

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"
)

// JobStatus is the lifecycle of a submitted job.
type JobStatus string

const (
	JobQueued  JobStatus = "queued"
	JobRunning JobStatus = "running"
	JobDone    JobStatus = "done"
	JobFailed  JobStatus = "failed"
)

// JobView is the JSON shape of one job, as returned by POST /v1/simulate
// and GET /v1/jobs/{id}.
type JobView struct {
	ID         string          `json:"id"`
	Kind       string          `json:"kind"`
	Status     JobStatus       `json:"status"`
	Submitted  time.Time       `json:"submitted"`
	Started    *time.Time      `json:"started,omitempty"`
	Finished   *time.Time      `json:"finished,omitempty"`
	DurationMS float64         `json:"duration_ms,omitempty"` // queue wait excluded
	Outcome    string          `json:"outcome,omitempty"`     // ok|timeout|canceled|bad_input|error
	Error      string          `json:"error,omitempty"`
	Result     json.RawMessage `json:"result,omitempty"`
}

// jobStore tracks submitted jobs by ID, bounding memory by evicting the
// oldest finished jobs beyond a history limit (running and queued jobs are
// never evicted: a client polling a live job must always find it).
type jobStore struct {
	mu       sync.Mutex
	seq      uint64
	jobs     map[string]*JobView
	finished []string // finished job IDs in completion order, for eviction
	history  int
}

func newJobStore(history int) *jobStore {
	return &jobStore{jobs: make(map[string]*JobView), history: history}
}

// create registers a new queued job and returns its view snapshot.
func (s *jobStore) create(kind string) JobView {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	j := &JobView{
		ID:        fmt.Sprintf("j%08d", s.seq),
		Kind:      kind,
		Status:    JobQueued,
		Submitted: time.Now().UTC(),
	}
	s.jobs[j.ID] = j
	return *j
}

// createWithID registers a queued job under a caller-chosen (content-hashed)
// ID — the idempotent submission path. If a live or successful job already
// holds the ID, that job is returned with created=false: resubmitting the
// same identity joins the existing job instead of duplicating work. A failed
// job is replaced, so clients can retry a failure by resubmitting.
func (s *jobStore) createWithID(id, kind string) (JobView, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j, ok := s.jobs[id]; ok {
		if j.Status != JobFailed {
			return *j, false
		}
		s.dropFinished(id) // the replacement is live again; un-schedule eviction
	}
	j := &JobView{
		ID:        id,
		Kind:      kind,
		Status:    JobQueued,
		Submitted: time.Now().UTC(),
	}
	s.jobs[id] = j
	return *j, true
}

// completeCached registers (or replaces) a job that was answered wholly from
// the durable result store: born finished, zero execution time.
func (s *jobStore) completeCached(id, kind string, result json.RawMessage) JobView {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := time.Now().UTC()
	j := &JobView{
		ID:        id,
		Kind:      kind,
		Status:    JobDone,
		Submitted: now,
		Started:   &now,
		Finished:  &now,
		Outcome:   outcomeOK,
		Result:    result,
	}
	if _, ok := s.jobs[id]; !ok {
		s.finished = append(s.finished, id)
	} else {
		s.dropFinished(id)
		s.finished = append(s.finished, id)
	}
	s.jobs[id] = j
	s.evictLocked()
	return *j
}

// dropFinished removes id from the finished-eviction order. Caller holds mu.
func (s *jobStore) dropFinished(id string) {
	for i, fid := range s.finished {
		if fid == id {
			s.finished = append(s.finished[:i], s.finished[i+1:]...)
			return
		}
	}
}

// evictLocked enforces the finished-job history bound. Caller holds mu.
func (s *jobStore) evictLocked() {
	for len(s.finished) > s.history {
		delete(s.jobs, s.finished[0])
		s.finished = s.finished[1:]
	}
}

// get returns a snapshot of the job, if known.
func (s *jobStore) get(id string) (JobView, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobView{}, false
	}
	return *j, true
}

// markRunning records the execution start.
func (s *jobStore) markRunning(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j, ok := s.jobs[id]; ok {
		now := time.Now().UTC()
		j.Status = JobRunning
		j.Started = &now
	}
}

// setResult attaches a result to a still-running job. A job abandoned on
// deadline may complete late, after markFinished has already recorded the
// timeout; the status check makes that late write a no-op, and the store
// mutex serializes the two.
func (s *jobStore) setResult(id string, result json.RawMessage) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j, ok := s.jobs[id]; ok && j.Status == JobRunning {
		j.Result = result
	}
}

// markFinished records the terminal state and evicts old finished jobs
// beyond the history bound. A successful job's Result was already attached
// by setResult; a failed job's is cleared.
func (s *jobStore) markFinished(id, outcome string, errMsg string, d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return
	}
	now := time.Now().UTC()
	j.Finished = &now
	j.DurationMS = float64(d) / float64(time.Millisecond)
	j.Outcome = outcome
	if errMsg != "" {
		j.Status = JobFailed
		j.Error = errMsg
		j.Result = nil
	} else {
		j.Status = JobDone
	}
	s.finished = append(s.finished, id)
	s.evictLocked()
}

// len returns the number of tracked jobs.
func (s *jobStore) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.jobs)
}
