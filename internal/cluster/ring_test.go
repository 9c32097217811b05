package cluster

import (
	"fmt"
	"testing"
)

// ringKeys is a synthetic shard-key population large enough to expose
// placement skew: 1000 keys in the plan's "bench#gN" shape.
func ringKeys() []string {
	keys := make([]string, 0, 1000)
	for i := 0; i < 250; i++ {
		for g := 0; g < 4; g++ {
			keys = append(keys, fmt.Sprintf("bench%03d#g%d", i, g))
		}
	}
	return keys
}

// TestRingBalance: with the default replica count each node's key share
// stays within a tolerance band of the fair share.
func TestRingBalance(t *testing.T) {
	for _, n := range []int{2, 3, 5, 8} {
		nodes := make([]string, n)
		for i := range nodes {
			nodes[i] = fmt.Sprintf("http://10.0.0.%d:8080", i+1)
		}
		r := NewRing(nodes, 0)
		count := map[string]int{}
		keys := ringKeys()
		for _, k := range keys {
			count[r.OwnerAmong(k, nil)]++
		}
		fair := float64(len(keys)) / float64(n)
		for _, node := range nodes {
			got := float64(count[node])
			// 64 vnodes/node gives stddev around 12% of fair share; 2x fair
			// (and non-zero) catches a broken hash without being flaky.
			if got == 0 || got > 2*fair {
				t.Errorf("%d nodes: %s owns %d keys, fair share %.0f", n, node, count[node], fair)
			}
		}
	}
}

// TestRingMinimalChurn: removing one node reassigns only its keys; every
// other key keeps its owner — the property the coordinator's node-death
// rebalance relies on so surviving caches stay hot.
func TestRingMinimalChurn(t *testing.T) {
	nodes := []string{"http://a:8080", "http://b:8080", "http://c:8080", "http://d:8080"}
	r := NewRing(nodes, 0)
	dead := nodes[2]
	alive := func(n string) bool { return n != dead }
	moved := 0
	for _, k := range ringKeys() {
		before := r.OwnerAmong(k, nil)
		after := r.OwnerAmong(k, alive)
		if before != dead {
			if after != before {
				t.Fatalf("key %s moved %s -> %s though its owner survived", k, before, after)
			}
			continue
		}
		if after == dead {
			t.Fatalf("key %s still owned by dead node", k)
		}
		moved++
	}
	if moved == 0 {
		t.Fatal("dead node owned no keys; test exercised nothing")
	}

	// OwnerAmong must agree with a ring built from only the survivors:
	// failover is the same pure function as membership change.
	survivors := NewRing([]string{nodes[0], nodes[1], nodes[3]}, 0)
	for _, k := range ringKeys() {
		if got, want := r.OwnerAmong(k, alive), survivors.OwnerAmong(k, nil); got != want {
			t.Fatalf("key %s: OwnerAmong = %s, survivor ring = %s", k, got, want)
		}
	}
}

// TestRingOrderIndependence: ownership is a pure function of the node set,
// not the order endpoints were listed.
func TestRingOrderIndependence(t *testing.T) {
	a := NewRing([]string{"n1", "n2", "n3"}, 32)
	b := NewRing([]string{"n3", "n1", "n2"}, 32)
	for _, k := range ringKeys()[:100] {
		if a.OwnerAmong(k, nil) != b.OwnerAmong(k, nil) {
			t.Fatalf("key %s owner depends on node order: %s vs %s", k, a.OwnerAmong(k, nil), b.OwnerAmong(k, nil))
		}
	}
}

// TestRingAssignBounded: the bounded-load assignment spreads any key set —
// even one smaller than the fleet would clump under raw ownership — so no
// node exceeds ceil(K/E) keys, the result is deterministic in key order, and
// dead nodes get nothing.
func TestRingAssignBounded(t *testing.T) {
	nodes := []string{"http://a:8080", "http://b:8080", "http://c:8080"}
	r := NewRing(nodes, 0)

	// Tiny key set (the real failure mode: 2 benches × 2 daemons clumped).
	for k := 2; k <= 6; k++ {
		keys := make([]string, k)
		for i := range keys {
			keys[i] = fmt.Sprintf("bench%d#g0", i)
		}
		assign := r.AssignBounded(keys, nil)
		load := map[string]int{}
		for _, key := range keys {
			owner := assign[key]
			if owner == "" {
				t.Fatalf("k=%d: key %s unassigned", k, key)
			}
			load[owner]++
		}
		capPer := (k + len(nodes) - 1) / len(nodes)
		for n, l := range load {
			if l > capPer {
				t.Fatalf("k=%d: node %s holds %d keys, cap %d (load %v)", k, n, l, capPer, load)
			}
		}
	}

	// Determinism under input permutation: same set, same assignment.
	keys := ringKeys()[:40]
	want := r.AssignBounded(keys, nil)
	rev := make([]string, len(keys))
	for i, k := range keys {
		rev[len(keys)-1-i] = k
	}
	got := r.AssignBounded(rev, nil)
	for k, w := range want {
		if got[k] != w {
			t.Fatalf("key %s: owner depends on input order (%s vs %s)", k, got[k], w)
		}
	}

	// Dead nodes receive nothing; survivors absorb under the tighter cap.
	dead := nodes[1]
	assign := r.AssignBounded(keys, func(n string) bool { return n != dead })
	load := map[string]int{}
	for _, key := range keys {
		if assign[key] == dead {
			t.Fatalf("key %s assigned to dead node", key)
		}
		load[assign[key]]++
	}
	capPer := (len(keys) + 1) / 2
	for n, l := range load {
		if l > capPer {
			t.Fatalf("survivor %s holds %d keys, cap %d", n, l, capPer)
		}
	}

	// Most keys keep their unbounded owner (near-minimal churn): with 1000
	// keys over 3 nodes the cap binds rarely, so >80% must not move.
	all := ringKeys()
	bounded := r.AssignBounded(all, nil)
	same := 0
	for _, k := range all {
		if bounded[k] == r.OwnerAmong(k, nil) {
			same++
		}
	}
	if same*5 < len(all)*4 {
		t.Fatalf("bounded assignment moved %d/%d keys off their raw owner", len(all)-same, len(all))
	}

	// All dead: falls back to unfiltered owners rather than dropping keys.
	fb := r.AssignBounded([]string{"x#g0"}, func(string) bool { return false })
	if fb["x#g0"] == "" {
		t.Fatal("all-dead fallback returned empty owner")
	}
}

// TestRingAllDead: with no live node the walk falls back to the unfiltered
// owner instead of spinning or returning "".
func TestRingAllDead(t *testing.T) {
	r := NewRing([]string{"a", "b"}, 8)
	if got := r.OwnerAmong("k", func(string) bool { return false }); got == "" {
		t.Fatal("all-dead fallback returned empty owner")
	}
	var empty Ring
	if got := empty.OwnerAmong("k", nil); got != "" {
		t.Fatalf("empty ring owner = %q, want \"\"", got)
	}
}
