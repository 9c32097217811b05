package cluster

import (
	"fmt"
	"hash/fnv"
	"io"
	"sort"
)

// Ring is a consistent-hash ring over the fleet's endpoints. Shard keys —
// (benchmark, config-group) pairs — hash onto the same circle as the nodes'
// virtual points, and a key is owned by the first node point at or clockwise
// of it. Two properties matter here:
//
//   - Balance: with enough virtual points per node (defaultRingReplicas),
//     each node owns a near-equal arc of the circle, so benchmarks spread
//     over the fleet without a central assignment table.
//   - Minimal churn: removing a node only reassigns the keys it owned; every
//     other key keeps its owner. Under node death the coordinator re-derives
//     affinities from the surviving ring, and only the dead node's shards
//     move — the live nodes' caches stay hot.
//
// Ownership is an affinity (a preference the work-stealing scheduler honors
// first), never a correctness requirement: the merger's exactly-once,
// seq-ordered commit keeps the merged output byte-identical no matter which
// node ends up computing a shard.
type Ring struct {
	replicas int
	nodes    []string
	points   []uint64 // sorted virtual-node positions
	owners   []string // owners[i] owns the arc ending at points[i]
}

// defaultRingReplicas is the virtual-node count per endpoint. 64 points per
// node keeps the expected per-node load imbalance within a few percent for
// the fleet sizes (2–16 daemons) the coordinator targets, at negligible
// memory and lookup cost.
const defaultRingReplicas = 64

// NewRing builds a ring over nodes with the given virtual-node count per
// node (<= 0 selects defaultRingReplicas). Node order does not affect
// ownership — the ring is a pure function of the node names.
func NewRing(nodes []string, replicas int) *Ring {
	if replicas <= 0 {
		replicas = defaultRingReplicas
	}
	r := &Ring{
		replicas: replicas,
		nodes:    append([]string(nil), nodes...),
		points:   make([]uint64, 0, len(nodes)*replicas),
		owners:   make([]string, 0, len(nodes)*replicas),
	}
	type vnode struct {
		at    uint64
		owner string
	}
	vns := make([]vnode, 0, len(nodes)*replicas)
	for _, n := range nodes {
		for i := 0; i < replicas; i++ {
			vns = append(vns, vnode{at: ringHash(fmt.Sprintf("%s#%d", n, i)), owner: n})
		}
	}
	sort.Slice(vns, func(i, j int) bool {
		if vns[i].at != vns[j].at {
			return vns[i].at < vns[j].at
		}
		// Colliding points tie-break on name so ownership stays a pure
		// function of the node set.
		return vns[i].owner < vns[j].owner
	})
	for _, v := range vns {
		r.points = append(r.points, v.at)
		r.owners = append(r.owners, v.owner)
	}
	return r
}

func ringHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s)) //nolint:errcheck // fnv never fails
	// FNV-1a diffuses short sequential suffixes ("…#0", "…#1") poorly, which
	// clumps a node's virtual points; a splitmix64 finalizer spreads them.
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Replicas returns the virtual-node count per endpoint.
func (r *Ring) Replicas() int { return r.replicas }

// Nodes returns the ring's endpoints in construction order.
func (r *Ring) Nodes() []string { return r.nodes }

// OwnerAmong returns the owner of key among the nodes for which alive
// returns true (nil means all): the walk continues clockwise past dead
// nodes' points, which is exactly the minimal-churn reassignment — keys of
// dead nodes redistribute to their ring successors, keys of live nodes stay
// put. With no live node at all it falls back to the unfiltered owner.
func (r *Ring) OwnerAmong(key string, alive func(string) bool) string {
	if len(r.points) == 0 {
		return ""
	}
	at := ringHash(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i] >= at })
	for off := 0; off < len(r.points); off++ {
		owner := r.owners[(start+off)%len(r.points)]
		if alive == nil || alive(owner) {
			return owner
		}
	}
	return r.owners[start%len(r.points)]
}

// AssignBounded maps every key to a live node with consistent hashing under
// a load bound (the "bounded loads" refinement): each key walks clockwise
// from its hash, skipping dead nodes and nodes already holding
// ceil(K/E) keys. Plain ownership is fine when keys vastly outnumber nodes,
// but a sweep plan has only a handful of shard keys — with two benchmarks
// on two daemons, a coin flip of raw ownership clumps both onto one node,
// and a cold fleet then herds onto the same artifacts. The bound guarantees
// spread (no node gets more than its fair ceiling) while inheriting the
// ring's properties: assignment is a pure function of (key set, node set),
// and most keys keep their unbounded owner, so churn on membership change
// stays near minimal. Keys are processed in sorted order for determinism;
// with no live node the unfiltered single-key owner is used.
func (r *Ring) AssignBounded(keys []string, alive func(string) bool) map[string]string {
	assign := make(map[string]string, len(keys))
	if len(r.points) == 0 {
		return assign
	}
	uniq := make([]string, 0, len(keys))
	seen := make(map[string]bool, len(keys))
	for _, k := range keys {
		if !seen[k] {
			seen[k] = true
			uniq = append(uniq, k)
		}
	}
	sort.Strings(uniq)
	liveNodes := 0
	for _, n := range r.nodes {
		if alive == nil || alive(n) {
			liveNodes++
		}
	}
	if liveNodes == 0 {
		for _, k := range uniq {
			assign[k] = r.OwnerAmong(k, nil)
		}
		return assign
	}
	capPer := (len(uniq) + liveNodes - 1) / liveNodes
	load := make(map[string]int, liveNodes)
	for _, k := range uniq {
		at := ringHash(k)
		start := sort.Search(len(r.points), func(i int) bool { return r.points[i] >= at })
		owner := ""
		for off := 0; off < len(r.points); off++ {
			n := r.owners[(start+off)%len(r.points)]
			if (alive == nil || alive(n)) && load[n] < capPer {
				owner = n
				break
			}
		}
		if owner == "" { // every live node at the cap (can't happen, but stay total)
			owner = r.OwnerAmong(k, alive)
		}
		load[owner]++
		assign[k] = owner
	}
	return assign
}

// FprintRing renders the plan's ring assignment for -dry-run: every shard
// key with its owning node, then the per-node virtual-point (replica) counts
// and owned-key totals.
func (p Plan) FprintRing(w io.Writer) {
	if p.Ring == nil {
		return
	}
	fmt.Fprintf(w, "ring: %d nodes, %d replicas per node, %d virtual points\n",
		len(p.Ring.Nodes()), p.Ring.Replicas(), len(p.Ring.points))
	keyCount := make(map[string]int)
	seen := make(map[string]bool)
	for _, b := range p.Batches {
		if seen[b.Key] {
			continue
		}
		seen[b.Key] = true
		keyCount[b.Affinity]++
		fmt.Fprintf(w, "  key %-24s -> %s\n", b.Key, b.Affinity)
	}
	for _, n := range p.Ring.Nodes() {
		fmt.Fprintf(w, "  node %-24s %d replicas, %d keys\n", n, p.Ring.Replicas(), keyCount[n])
	}
}
