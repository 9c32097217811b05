package harness

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// TestMemoSingleFlight checks the core contract: many concurrent Gets for
// one key run the computation exactly once and all observe its result.
func TestMemoSingleFlight(t *testing.T) {
	m := NewMemo[string, int](4)
	var computations atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := m.Get("k", func() (int, error) {
				computations.Add(1)
				return 42, nil
			})
			if err != nil || v != 42 {
				t.Errorf("Get = (%d, %v), want (42, nil)", v, err)
			}
		}()
	}
	wg.Wait()
	if n := computations.Load(); n != 1 {
		t.Errorf("computation ran %d times, want 1", n)
	}
	if hits, misses := m.Stats(); hits != 15 || misses != 1 {
		t.Errorf("stats = %d hits / %d misses, want 15/1", hits, misses)
	}
}

// TestMemoErrorsCached checks that a failed computation is memoized too:
// the computations here are deterministic, so retrying would fail the same
// way at full cost.
func TestMemoErrorsCached(t *testing.T) {
	m := NewMemo[int, int](4)
	boom := errors.New("boom")
	calls := 0
	for i := 0; i < 3; i++ {
		if _, err := m.Get(7, func() (int, error) { calls++; return 0, boom }); !errors.Is(err, boom) {
			t.Fatalf("Get error = %v, want %v", err, boom)
		}
	}
	if calls != 1 {
		t.Errorf("failing computation ran %d times, want 1", calls)
	}
}

// TestMemoEviction checks the LRU-ish bound: the least recently used entry
// goes first, a refreshed entry survives, and capacity never overshoots.
func TestMemoEviction(t *testing.T) {
	m := NewMemo[int, int](2)
	get := func(k int) {
		t.Helper()
		if _, err := m.Get(k, func() (int, error) { return k, nil }); err != nil {
			t.Fatal(err)
		}
	}
	get(1)
	get(2)
	get(1) // refresh 1 → 2 is now the LRU
	get(3) // evicts 2
	if m.Len() != 2 {
		t.Fatalf("Len = %d, want 2", m.Len())
	}
	_, misses0 := m.Stats()
	get(1) // must still be cached
	get(3)
	if _, misses := m.Stats(); misses != misses0 {
		t.Errorf("refreshed/just-inserted entries were evicted (misses %d → %d)", misses0, misses)
	}
	get(2) // must have been evicted → recompute
	if _, misses := m.Stats(); misses != misses0+1 {
		t.Errorf("expected exactly one recomputation of the evicted key")
	}
}

// TestMemoPeek pins what Peek may and may not do: it answers only for a
// key computed without error, returns at once for a key still in flight,
// and moves no counter and no recency.
func TestMemoPeek(t *testing.T) {
	m := NewMemo[string, int](4)
	if _, ok := m.Peek("absent"); ok {
		t.Error("Peek found an absent key")
	}
	if _, err := m.Get("ok", func() (int, error) { return 7, nil }); err != nil {
		t.Fatal(err)
	}
	if v, ok := m.Peek("ok"); !ok || v != 7 {
		t.Errorf("Peek(computed) = (%d, %v), want (7, true)", v, ok)
	}
	m.Get("err", func() (int, error) { return 9, errors.New("boom") }) //nolint:errcheck
	if _, ok := m.Peek("err"); ok {
		t.Error("Peek returned the value of a failed computation")
	}

	started, release, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		m.Get("flight", func() (int, error) { //nolint:errcheck
			close(started)
			<-release
			return 1, nil
		})
	}()
	<-started
	if _, ok := m.Peek("flight"); ok {
		t.Error("Peek returned a key still being computed")
	}
	close(release)
	<-done
	if v, ok := m.Peek("flight"); !ok || v != 1 {
		t.Errorf("Peek(flight) after it finished = (%d, %v), want (1, true)", v, ok)
	}

	before := m.Counters()
	for _, k := range []string{"absent", "ok", "err", "flight"} {
		m.Peek(k)
	}
	if after := m.Counters(); after != before {
		t.Errorf("Peek moved the counters: %+v → %+v", before, after)
	}

	// Recency is by Get time only: 1 stays the least recently used entry
	// however often it is peeked, so inserting 3 evicts it.
	r := NewMemo[int, int](2)
	for _, k := range []int{1, 2} {
		r.Get(k, func() (int, error) { return k, nil }) //nolint:errcheck
	}
	r.Peek(1)
	r.Get(3, func() (int, error) { return 3, nil }) //nolint:errcheck
	if _, ok := r.Peek(1); ok {
		t.Error("Peek refreshed the recency of the key it read")
	}
	if _, ok := r.Peek(2); !ok {
		t.Error("the entry Get used last was evicted")
	}
}
