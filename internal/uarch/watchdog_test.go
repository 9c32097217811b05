package uarch

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"intervalsim/internal/isa"
	"intervalsim/internal/workload"
)

func testTraceReader(t *testing.T, name string, insts int) *workload.Generator {
	t.Helper()
	wc, ok := workload.SuiteConfig(name)
	if !ok {
		t.Fatalf("unknown benchmark %s", name)
	}
	return workload.MustNew(wc, insts)
}

// watchdogParity runs a failing simulation on the reference loop and on the
// skipping loop and requires the same error text from both: watchdog errors
// name cycles and commit counts that skipping dead cycles must not move.
func watchdogParity(t *testing.T, run func() error) error {
	t.Helper()
	var ref error
	onLoop(false, func() { ref = run() })
	err := run()
	sameError(t, ref, err)
	return err
}

func TestMaxCyclesWatchdog(t *testing.T) {
	cfg := Baseline()
	err := watchdogParity(t, func() error {
		_, err := Run(testTraceReader(t, "gzip", 500_000), cfg, Options{MaxCycles: 2_000})
		return err
	})
	if !errors.Is(err, ErrWatchdog) {
		t.Fatalf("err = %v, want ErrWatchdog", err)
	}
}

func TestMaxCyclesAboveRunLength(t *testing.T) {
	cfg := Baseline()
	res, err := Run(testTraceReader(t, "gzip", 10_000), cfg, Options{MaxCycles: 10_000_000})
	if err != nil {
		t.Fatalf("generous budget tripped: %v", err)
	}
	if res.Insts != 10_000 {
		t.Fatalf("committed %d insts, want 10000", res.Insts)
	}
}

func TestNoProgressWatchdog(t *testing.T) {
	// An adversarial no-forward-progress setup: memory latency far above the
	// no-progress budget, so the first long D-miss at the ROB head starves
	// commit for longer than the watchdog allows. The run must return
	// ErrWatchdog within the configured budget instead of being treated as
	// normal execution.
	cfg := Baseline()
	cfg.Mem.Lat.Mem = 100_000
	err := watchdogParity(t, func() error {
		_, err := Run(testTraceReader(t, "mcf", 500_000), cfg, Options{
			NoProgressCycles: 5_000,
			MaxCycles:        50_000_000,
		})
		return err
	})
	if !errors.Is(err, ErrWatchdog) {
		t.Fatalf("err = %v, want ErrWatchdog", err)
	}
}

// TestCancelSeenDuringLongStall: a context canceled while a long memory miss
// blocks the ROB head is seen at the first poll boundary after the cancel,
// on both loops — the skip may jump over the stall but never over a poll.
func TestCancelSeenDuringLongStall(t *testing.T) {
	cfg := Baseline()
	cfg.Mem.Lat.Mem = 2000 // one miss spans about two poll periods
	for _, skip := range []bool{true, false} {
		t.Run(fmt.Sprintf("skip=%v", skip), func(t *testing.T) {
			onLoop(skip, func() {
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				s, err := newSimulator(testTraceReader(t, "mcf", 200_000), cfg, Options{})
				if err != nil {
					t.Fatal(err)
				}
				s.noProgress = 1_000_000 // what run resolves for a zero NoProgressCycles
				// Run until a long miss at the ROB head is still outstanding at
				// the next poll boundary.
				stalled := func() bool {
					e := &s.rob[s.headSlot]
					return s.head < s.tail && e.issued && e.class == isa.Load && e.doneAt > (s.cycle|ctxPollMask)+1
				}
				for !stalled() {
					if done, err := s.step(ctx); done || err != nil {
						t.Fatalf("no long stall reached (done %v, err %v)", done, err)
					}
				}
				poll := (s.cycle | ctxPollMask) + 1
				cancel()
				for {
					done, err := s.step(ctx)
					if done {
						t.Fatal("run finished after the cancel")
					}
					if err == nil {
						continue
					}
					if !errors.Is(err, ErrCanceled) {
						t.Fatalf("err = %v, want ErrCanceled", err)
					}
					if want := fmt.Sprintf("at cycle %d:", poll); !strings.Contains(err.Error(), want) {
						t.Fatalf("err = %q, want the cancel seen %s", err, want)
					}
					return
				}
			})
		})
	}
}

func TestRunContextCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunContext(ctx, testTraceReader(t, "gzip", 500_000), Baseline(), Options{})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}

func TestBadConfigSentinel(t *testing.T) {
	cfg := Baseline()
	cfg.ROBSize = 0
	if _, err := Run(testTraceReader(t, "gzip", 100), cfg, Options{}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("err = %v, want ErrBadConfig", err)
	}
	cfg = Baseline()
	cfg.Pred.Kind = "nonesuch"
	if err := cfg.Validate(); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("predictor error = %v, want ErrBadConfig", err)
	}
}
