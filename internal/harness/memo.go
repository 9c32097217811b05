package harness

import (
	"sync"
	"sync/atomic"
)

// Memo is a bounded, concurrency-safe, single-flight memoization table: the
// sharing primitive behind cross-worker caches (for example the miss-event
// overlay cache in package overlay, or the packed-trace table in package
// experiments). Get computes each key's value exactly once even when many
// workers ask for it simultaneously — late arrivals block on the first
// computation instead of duplicating it — and an LRU-ish bound keeps the
// table from growing without limit across a long sweep.
//
// Values are cached by key forever or until evicted; errors are cached the
// same way (the computations memoized here are deterministic, so retrying a
// failed one would fail identically).
type Memo[K comparable, V any] struct {
	mu        sync.Mutex
	cap       int
	tick      uint64
	entries   map[K]*memoEntry[V]
	hits      uint64
	misses    uint64
	evictions uint64
}

type memoEntry[V any] struct {
	once    sync.Once
	done    atomic.Bool // set inside once.Do, after val and err
	val     V
	err     error
	lastUse uint64
}

// NewMemo returns a Memo holding at most capacity entries (minimum 1).
// Eviction is least-recently-used by Get time; an evicted entry that is
// still being computed stays valid for the goroutines already holding it
// and is simply recomputed on the next Get.
func NewMemo[K comparable, V any](capacity int) *Memo[K, V] {
	if capacity < 1 {
		capacity = 1
	}
	return &Memo[K, V]{cap: capacity, entries: make(map[K]*memoEntry[V])}
}

// Get returns the memoized value for k, invoking compute (outside the table
// lock) only on the first request for a key. Concurrent Gets for the same
// key share one computation.
func (m *Memo[K, V]) Get(k K, compute func() (V, error)) (V, error) {
	m.mu.Lock()
	e, ok := m.entries[k]
	if ok {
		m.hits++
	} else {
		m.misses++
		e = &memoEntry[V]{}
		m.entries[k] = e
	}
	m.tick++
	e.lastUse = m.tick
	if !ok {
		m.evictLocked()
	}
	m.mu.Unlock()

	e.once.Do(func() {
		e.val, e.err = compute()
		e.done.Store(true)
	})
	return e.val, e.err
}

// Peek returns the value cached for k when its computation has finished
// without error. It never computes, never waits on a computation in flight,
// counts neither a hit nor a miss, and leaves k's recency alone, so a
// reader of what the table already holds cannot change what it holds.
func (m *Memo[K, V]) Peek(k K) (V, bool) {
	m.mu.Lock()
	e, ok := m.entries[k]
	m.mu.Unlock()
	if !ok || !e.done.Load() || e.err != nil {
		var zero V
		return zero, false
	}
	return e.val, true
}

// evictLocked drops least-recently-used entries until the bound holds. The
// just-inserted entry carries the newest tick, so it is never the victim.
func (m *Memo[K, V]) evictLocked() {
	for len(m.entries) > m.cap {
		var victim K
		oldest := uint64(0)
		first := true
		for k, e := range m.entries {
			if first || e.lastUse < oldest {
				victim, oldest, first = k, e.lastUse, false
			}
		}
		delete(m.entries, victim)
		m.evictions++
	}
}

// MemoStats is a point-in-time snapshot of a Memo's counters, exported so
// long-lived processes (the intervalsimd daemon's /metrics endpoint) can
// report cache effectiveness without reaching into the table.
type MemoStats struct {
	Hits      uint64 // Gets that found an existing entry
	Misses    uint64 // Gets that created an entry (computations started)
	Evictions uint64 // entries dropped by the LRU bound
	Entries   int    // entries currently cached
}

// HitRate returns Hits / (Hits + Misses), or 0 before the first Get.
func (s MemoStats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// Counters returns a consistent snapshot of the memo's counters.
func (m *Memo[K, V]) Counters() MemoStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return MemoStats{Hits: m.hits, Misses: m.misses, Evictions: m.evictions, Entries: len(m.entries)}
}

// Stats returns how many Gets found an existing entry (hits) versus
// triggered a computation (misses).
func (m *Memo[K, V]) Stats() (hits, misses uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.hits, m.misses
}

// Len returns the current number of cached entries.
func (m *Memo[K, V]) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.entries)
}
