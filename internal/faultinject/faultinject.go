// Package faultinject is a deterministic, seed-driven fault layer for
// exercising recovery paths in tests. It wraps the two interfaces the
// durability and fleet code already depend on — store.FS for filesystem
// operations and http.RoundTripper for daemon RPCs — and injects failures
// with configured probabilities: outright write errors, torn (partial)
// writes, fsync failures, transport errors, added latency, and forced 429
// admission pushback.
//
// Every decision is drawn from one seeded internal/rng source in call
// order, so a single-goroutine test replays the identical fault schedule
// from the same seed, and a failure report ("seed 17 broke recovery") is
// reproducible. Nothing in this package is wired into production binaries;
// it exists so the store's truncated-tail recovery, the service's journal
// replay, and the cluster coordinator's retry/steal machinery are verified
// by tests rather than only by the CI SIGKILL smoke job.
package faultinject

import (
	"errors"
	"fmt"
	"sync"

	"intervalsim/internal/rng"
)

// ErrInjected is the root of every synthetic failure, so tests can assert
// a fault was injected (errors.Is) rather than a genuine one.
var ErrInjected = errors.New("faultinject: injected fault")

// Config sets per-operation fault probabilities; zero means never.
type Config struct {
	// Filesystem faults (Injector.FS).
	WriteErrProb  float64 // write fails, no bytes land
	TornWriteProb float64 // write lands a strict prefix, then fails
	SyncErrProb   float64 // fsync fails (already-written bytes stay)

	// Transport faults (Injector.Transport).
	RPCErrProb  float64 // round trip fails with a transport error
	RPC429Prob  float64 // round trip is answered by a synthetic 429
	RPCLatencyP float64 // probability of added latency before dispatch
	RPCLatency  Latency // how much latency to add when it fires
}

// Latency is a bounded synthetic delay in milliseconds, sampled uniformly
// in [MinMS, MaxMS].
type Latency struct {
	MinMS int
	MaxMS int
}

// Stats counts what the injector actually did.
type Stats struct {
	Writes     int // fs writes observed
	WriteErrs  int
	TornWrites int
	SyncErrs   int
	RPCs       int // round trips observed
	RPCErrs    int
	RPC429s    int
	Delays     int
}

// Injector makes seeded fault decisions. One injector may back both an FS
// and a Transport; decisions interleave in call order under one lock.
type Injector struct {
	mu    sync.Mutex
	cfg   Config
	src   *rng.Source
	stats Stats
}

// New returns an injector whose whole schedule derives from seed.
func New(seed uint64, cfg Config) *Injector {
	return &Injector{cfg: cfg, src: rng.New(seed)}
}

// Stats returns a snapshot of the injected-fault counters.
func (in *Injector) Stats() Stats {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.stats
}

// writeDecision is the fate of one fs write of n bytes.
type writeDecision struct {
	fail bool
	keep int // bytes that land before the failure (torn write)
}

// decideWrite draws the fate of an n-byte write.
func (in *Injector) decideWrite(n int) writeDecision {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.stats.Writes++
	switch {
	case in.src.Bool(in.cfg.WriteErrProb):
		in.stats.WriteErrs++
		return writeDecision{fail: true}
	case n > 1 && in.src.Bool(in.cfg.TornWriteProb):
		in.stats.TornWrites++
		return writeDecision{fail: true, keep: 1 + in.src.Intn(n-1)}
	}
	return writeDecision{}
}

// decideSync draws the fate of one fsync.
func (in *Injector) decideSync() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.src.Bool(in.cfg.SyncErrProb) {
		in.stats.SyncErrs++
		return true
	}
	return false
}

// injectedErr labels a synthetic failure with its operation.
func injectedErr(op string) error { return fmt.Errorf("%w: %s", ErrInjected, op) }
