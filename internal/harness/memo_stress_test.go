package harness

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// TestMemoCounters checks the exported counter snapshot: hits, misses,
// evictions, and live entries, plus the derived hit rate.
func TestMemoCounters(t *testing.T) {
	m := NewMemo[int, int](2)
	if s := m.Counters(); s != (MemoStats{}) {
		t.Fatalf("fresh Counters = %+v, want zeros", s)
	}
	if s := (MemoStats{}); s.HitRate() != 0 {
		t.Fatalf("zero-stats HitRate = %v, want 0", s.HitRate())
	}
	get := func(k int) {
		t.Helper()
		if _, err := m.Get(k, func() (int, error) { return k, nil }); err != nil {
			t.Fatal(err)
		}
	}
	get(1)
	get(1)
	get(2)
	get(3) // over capacity: evicts 1, the least recently used entry
	want := MemoStats{Hits: 1, Misses: 3, Evictions: 1, Entries: 2}
	if s := m.Counters(); s != want {
		t.Fatalf("Counters = %+v, want %+v", s, want)
	}
	if got := m.Counters().HitRate(); got != 0.25 {
		t.Fatalf("HitRate = %v, want 0.25", got)
	}
}

// TestMemoStressSingleFlight hammers one memo from many goroutines asking
// for the same and distinct keys concurrently and asserts the single-flight
// contract holds under contention: each key's computation runs exactly once,
// every caller of a key observes the same value, and a Peek racing the
// computation sees the value or nothing. Run with -race, this is the
// regression test for the cross-worker sharing the trace cache and the
// service daemon depend on.
func TestMemoStressSingleFlight(t *testing.T) {
	const (
		keys       = 8
		goroutines = 32
		rounds     = 25
	)
	m := NewMemo[string, int](keys) // capacity == keys: no evictions
	var computes [keys]atomic.Int64

	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for r := 0; r < rounds; r++ {
				// Interleave a shared hot key with per-round distinct keys,
				// phase-shifted per goroutine so arrivals collide.
				k := (g + r) % keys
				key := fmt.Sprintf("key-%d", k)
				v, err := m.Get(key, func() (int, error) {
					computes[k].Add(1)
					return k * 1000, nil
				})
				if err != nil || v != k*1000 {
					t.Errorf("Get(%s) = (%d, %v), want (%d, nil)", key, v, err, k*1000)
					return
				}
				// Peek at a key that may still be in flight: it sees the
				// finished value or nothing, and counts nothing.
				next := (k + 1) % keys
				if v, ok := m.Peek(fmt.Sprintf("key-%d", next)); ok && v != next*1000 {
					t.Errorf("Peek(key-%d) = %d, want %d", next, v, next*1000)
					return
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()

	for k := 0; k < keys; k++ {
		if n := computes[k].Load(); n != 1 {
			t.Errorf("key %d computed %d times, want exactly once", k, n)
		}
	}
	s := m.Counters()
	if s.Misses != keys {
		t.Errorf("misses = %d, want %d (one per distinct key)", s.Misses, keys)
	}
	if s.Hits != goroutines*rounds-keys {
		t.Errorf("hits = %d, want %d", s.Hits, goroutines*rounds-keys)
	}
	if s.Evictions != 0 {
		t.Errorf("evictions = %d, want 0 (capacity covers all keys)", s.Evictions)
	}
}
