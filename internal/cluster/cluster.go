// Package cluster shards design-space sweeps across a fleet of intervalsimd
// daemons. A coordinator builds a shard plan keyed by workload (so each
// daemon's trace and overlay caches stay hot), dispatches batches over HTTP
// with health checks, retry with backoff, and 429/Retry-After admission
// pushback, steals work from slow or dead nodes, and merges the result
// stream back into canonical sweep order with exactly-once commit — the
// merged output is deterministic no matter how the fleet behaved.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"intervalsim/internal/service"
	"intervalsim/internal/stats"
)

// errSweepDone cancels in-flight duplicate dispatches once every point has
// committed: a stolen batch still streaming on a slow node has nothing left
// to contribute.
var errSweepDone = errors.New("cluster: sweep complete")

// Options configures a distributed sweep.
type Options struct {
	Endpoints []string // daemon base URLs (host:port accepted)
	Benches   []string // benchmarks to sweep, in output order

	Widths, Depths, ROBs []int // design-space axes, in output order

	Mode   string // "sim" (default), "sampled", or "model"
	Insts  int    // dynamic instructions per point
	Warmup uint64 // warmup instructions per point
	Pred   string // predictor preset for every point ("" = baseline tournament)

	// VPred is the value-predictor preset for every point ("" = no value
	// speculation); FetchRate throttles frontend fetch after low-confidence
	// branches (0 = full rate). Both are validated at daemon admission.
	VPred     string
	FetchRate float64

	// SampleDetailed/SampleSkip are the systematic-sampling phase lengths,
	// required (both positive) in sampled mode and ignored otherwise.
	SampleDetailed uint64
	SampleSkip     uint64

	// BatchSize is the number of design points per dispatched shard; 0
	// picks a default sized so each endpoint sees several shards.
	BatchSize int
	// PointTimeout bounds each design point on the daemon. 0 sends no
	// deadline, so the daemon applies its own default (intervalsimd
	// -timeout, 60s unless set).
	PointTimeout time.Duration
	// Retries is how many times one runner re-dispatches a batch after a
	// transport error before handing it back to the fleet.
	Retries int
	// KeepGoing continues past failed design points; the sweep still
	// reports an error at the end, after emitting every successful row.
	KeepGoing bool
	// StealAfter is how long a batch may be in flight before an idle node
	// steals it; 0 means a 5s default, negative disables stealing.
	StealAfter time.Duration
	// RingReplicas is the consistent-hash ring's virtual-node count per
	// endpoint (0 = default 64).
	RingReplicas int
	// DisablePeerFill stops the coordinator from advertising the fleet to
	// each daemon (the X-Peers header), so daemons compute every artifact
	// locally. Sharing is on by default: it only saves work and the merged
	// output is identical either way.
	DisablePeerFill bool

	HTTP *http.Client                     // optional transport override
	Logf func(format string, args ...any) // optional progress/diagnostic log
}

// NodeStats summarizes one endpoint's contribution to a sweep.
type NodeStats struct {
	Endpoint string
	Healthy  bool // answered the initial probe
	Dead     bool // abandoned mid-sweep after failed health probes
	Batches  int  // dispatches that returned a complete stream
	Points   int  // winning commits at the merger
	Busy     time.Duration

	// Per-batch dispatch latency quantiles (milliseconds).
	BatchP50MS, BatchP99MS float64

	// End-of-sweep scrape of the daemon's /metrics; nil if unreachable.
	Metrics *service.MetricsResponse
}

// MinstPerSec is the node's effective simulation throughput: committed
// points × instructions per point, over the time it spent serving batches.
func (n NodeStats) MinstPerSec(instsPerPoint int) float64 {
	if n.Busy <= 0 {
		return 0
	}
	return float64(n.Points) * float64(instsPerPoint) / n.Busy.Seconds() / 1e6
}

// RunStats is the end-of-sweep fleet summary.
type RunStats struct {
	Points  int // design points in the plan
	OK      int
	Failed  int
	Batches int // batches in the plan
	Stolen  int // steal dispatches issued
	Elapsed time.Duration
	Insts   int
	Nodes   []NodeStats
}

// FleetCaches aggregates the per-daemon cache and peer-fill counters from
// the end-of-sweep /metrics scrapes into one fleet view — the numbers that
// say whether scale-out actually shared work: fleet-wide artifact compute
// counts (duplicates show up as computed > distinct artifacts), peer-fill
// hits, and combined hit rates.
type FleetCaches struct {
	Scraped int // nodes whose /metrics answered

	OverlayHits, OverlayMisses uint64
	TraceHits, TraceMisses     uint64

	TraceFills, OverlayFills          uint64
	TracesComputed, OverlaysComputed  uint64
	FillBytesFetched, FillBytesServed uint64
	FillErrors                        uint64
}

// OverlayHitRate is the fleet-combined overlay-cache hit rate.
func (f FleetCaches) OverlayHitRate() float64 {
	if f.OverlayHits+f.OverlayMisses == 0 {
		return 0
	}
	return float64(f.OverlayHits) / float64(f.OverlayHits+f.OverlayMisses)
}

// TraceHitRate is the fleet-combined trace-cache hit rate.
func (f FleetCaches) TraceHitRate() float64 {
	if f.TraceHits+f.TraceMisses == 0 {
		return 0
	}
	return float64(f.TraceHits) / float64(f.TraceHits+f.TraceMisses)
}

// Caches sums the scraped per-node cache and peer-fill counters.
func (rs *RunStats) Caches() FleetCaches {
	var f FleetCaches
	for _, n := range rs.Nodes {
		m := n.Metrics
		if m == nil {
			continue
		}
		f.Scraped++
		f.OverlayHits += m.OverlayCache.Hits
		f.OverlayMisses += m.OverlayCache.Misses
		f.TraceHits += m.TraceCache.Hits
		f.TraceMisses += m.TraceCache.Misses
		f.TraceFills += m.PeerFill.TraceFills
		f.OverlayFills += m.PeerFill.OverlayFills
		f.TracesComputed += m.PeerFill.TracesComputed
		f.OverlaysComputed += m.PeerFill.OverlaysComputed
		f.FillBytesFetched += m.PeerFill.BytesFetched
		f.FillBytesServed += m.PeerFill.BytesServed
		f.FillErrors += m.PeerFill.Errors
	}
	return f
}

// nodeAcc is the mutable per-endpoint bookkeeping behind NodeStats.
type nodeAcc struct {
	mu      sync.Mutex
	healthy bool
	dead    bool
	batches int
	busy    time.Duration
	lat     *stats.Sample
}

func (a *nodeAcc) record(d time.Duration) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.batches++
	a.busy += d
	a.lat.Add(float64(d) / float64(time.Millisecond))
}

// run is the live state of one distributed sweep.
type run struct {
	opts   Options
	mode   string
	sched  *scheduler
	merger *Merger
	ring   *Ring
	keys   []string // distinct shard keys of the plan, in batch order
	cancel context.CancelCauseFunc
	logf   func(string, ...any)
	nodes  map[string]*nodeAcc

	mu       sync.Mutex
	firstErr error
	dead     map[string]bool // nodes down at probe or abandoned mid-sweep
}

// markDead records a node as unusable and rebalances every unfinished
// batch's affinity onto the surviving fleet with the same bounded-load ring
// assignment the plan was built with: the dead node's shard keys move to
// their ring successors, keys of live nodes stay put unless the load bound
// forces a shuffle, so live nodes keep their hot caches.
// planKeys returns the plan's distinct shard keys in batch order — the key
// universe the bounded-load rebalance re-assigns on node death.
func planKeys(p Plan) []string {
	seen := make(map[string]bool)
	var keys []string
	for _, b := range p.Batches {
		if !seen[b.Key] {
			seen[b.Key] = true
			keys = append(keys, b.Key)
		}
	}
	return keys
}

func (r *run) markDead(endpoint string) {
	r.mu.Lock()
	r.dead[endpoint] = true
	dead := make(map[string]bool, len(r.dead))
	for k, v := range r.dead {
		dead[k] = v
	}
	r.mu.Unlock()
	alive := func(n string) bool { return !dead[n] }
	assign := r.ring.AssignBounded(r.keys, alive)
	r.sched.reassign(func(key string) string { return assign[key] })
}

// Run executes a sweep across the fleet, delivering merged rows to emit in
// canonical sweep order as their prefix completes. It returns the fleet
// summary along with the first error: a failed point (after every
// completable row has been emitted when KeepGoing), an incomplete sweep
// (every node died), or a context cancellation.
func Run(ctx context.Context, opts Options, emit func(*Row) error) (*RunStats, error) {
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	mode := opts.Mode
	if mode == "" {
		mode = "sim"
	}
	switch mode {
	case "sim", "sampled", "model":
	default:
		return nil, fmt.Errorf("cluster: unknown mode %q (want sim, sampled or model)", mode)
	}
	if mode == "sampled" && (opts.SampleDetailed == 0 || opts.SampleSkip == 0) {
		return nil, fmt.Errorf("cluster: sampled mode needs positive SampleDetailed and SampleSkip")
	}
	if opts.Insts <= 0 {
		return nil, fmt.Errorf("cluster: non-positive insts %d", opts.Insts)
	}
	stealAfter := opts.StealAfter
	if stealAfter == 0 {
		stealAfter = 5 * time.Second
	}

	clients := make([]*Client, len(opts.Endpoints))
	bases := make([]string, len(opts.Endpoints))
	for i, ep := range opts.Endpoints {
		clients[i] = NewClient(ep)
		clients[i].HTTP = opts.HTTP
		bases[i] = clients[i].Base
	}
	// The plan's ring is built over the clients' normalized base URLs, so
	// ring ownership, scheduler affinity, and runner identity all use the
	// same node names.
	plan, err := BuildPlan(bases, opts.Benches, opts.Widths, opts.Depths, opts.ROBs, opts.BatchSize, opts.RingReplicas)
	if err != nil {
		return nil, err
	}
	if !opts.DisablePeerFill && len(clients) > 1 {
		for i, c := range clients {
			for j, p := range clients {
				if i != j {
					c.Peers = append(c.Peers, p.Base)
				}
			}
		}
	}
	up := probeFleet(ctx, clients, 2*time.Second)
	healthy := 0
	for _, ok := range up {
		if ok {
			healthy++
		}
	}
	if healthy == 0 {
		return nil, fmt.Errorf("cluster: no healthy endpoints among %d probed", len(clients))
	}

	dctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)

	r := &run{
		opts:   opts,
		mode:   mode,
		sched:  newScheduler(plan, stealAfter),
		merger: NewMerger(plan.Points, emit),
		ring:   plan.Ring,
		keys:   planKeys(plan),
		cancel: cancel,
		logf:   logf,
		nodes:  make(map[string]*nodeAcc, len(clients)),
		dead:   make(map[string]bool),
	}
	for i, c := range clients {
		r.nodes[c.Base] = &nodeAcc{healthy: up[i], lat: stats.NewSample(1024)}
	}
	// Nodes that failed the initial probe never run; move their shard keys to
	// ring successors now so affinity reflects the live fleet from the start.
	for i, c := range clients {
		if !up[i] {
			r.markDead(c.Base)
		}
	}

	// Steal-age crossings don't signal the scheduler's cond on their own;
	// kick waiting runners periodically so they re-check.
	kick := stealAfter / 4
	if kick < 10*time.Millisecond {
		kick = 10 * time.Millisecond
	}
	go func() {
		t := time.NewTicker(kick)
		defer t.Stop()
		for {
			select {
			case <-dctx.Done():
				r.sched.stop()
				return
			case <-t.C:
				r.sched.kick()
			}
		}
	}()

	start := time.Now()
	var wg sync.WaitGroup
	for i, c := range clients {
		if !up[i] {
			logf("cluster: endpoint %s failed the initial health probe, skipping", c.Base)
			continue
		}
		wg.Add(1)
		go func(c *Client) {
			defer wg.Done()
			r.runEndpoint(dctx, c)
		}(c)
	}
	wg.Wait()
	cancel(errSweepDone)

	rs := r.summary(ctx, clients, plan, time.Since(start))
	if err := r.merger.Err(); err != nil {
		return rs, fmt.Errorf("cluster: emitting rows: %w", err)
	}
	if ctx.Err() != nil {
		return rs, ctx.Err()
	}
	r.mu.Lock()
	firstErr := r.firstErr
	r.mu.Unlock()
	if !r.merger.Done() {
		if !opts.KeepGoing && firstErr != nil {
			return rs, firstErr
		}
		missing := r.merger.Missing()
		return rs, fmt.Errorf("cluster: sweep incomplete: %d of %d points never committed (first missing seq %d)",
			len(missing), plan.Points, missing[0])
	}
	if failed := r.merger.Failed(); failed > 0 {
		return rs, fmt.Errorf("cluster: %d of %d design points failed (first: %v)", failed, plan.Points, firstErr)
	}
	return rs, nil
}

// runEndpoint is one node's dispatch loop: take the next batch (affinity
// first, then anything pending, then steal), stream it, and either commit
// the completion or hand the batch back and re-probe the node's health. A
// node that stays unhealthy is abandoned; the fleet absorbs its work.
func (r *run) runEndpoint(ctx context.Context, c *Client) {
	acc := r.nodes[c.Base]
	for {
		st := r.sched.next(c.Base)
		if st == nil {
			return
		}
		start := time.Now()
		err := r.dispatch(ctx, c, st)
		if err != nil {
			r.sched.fail(st)
			if ctx.Err() != nil {
				return
			}
			r.logf("cluster: %s: batch %d (%s, %d points) failed: %v", c.Base, st.ID, st.Bench, len(st.Specs), err)
			if herr := awaitHealthy(ctx, c, 5); herr != nil {
				r.logf("cluster: abandoning endpoint %s: %v", c.Base, herr)
				acc.mu.Lock()
				acc.dead = true
				acc.mu.Unlock()
				// Rebalance: hand the dead node's shard keys to their ring
				// successors so the fleet absorbs its work by affinity, not
				// only by steal.
				r.markDead(c.Base)
				return
			}
			continue
		}
		r.sched.complete(st)
		acc.record(time.Since(start))
		if done, total, _ := r.sched.stats(); done == total {
			// Unblock stolen duplicates still streaming elsewhere.
			r.cancel(errSweepDone)
		}
	}
}

// dispatch sends one batch to one daemon, retrying transport failures with
// doubling backoff up to Retries times. Result lines commit to the merger as
// they arrive, so a dispatch that dies mid-stream still contributes its
// completed prefix; the retry (or a thief) recomputes the rest and the
// duplicates are discarded.
func (r *run) dispatch(ctx context.Context, c *Client, st *batchState) error {
	req := service.BatchRequest{
		Benchmark: st.Bench,
		Insts:     r.opts.Insts,
		Warmup:    r.opts.Warmup,
		Pred:      r.opts.Pred,
		VPred:     r.opts.VPred,
		FetchRate: r.opts.FetchRate,
		Mode:      r.mode,
		Decompose: r.mode == "sim",
		TimeoutMS: int(r.opts.PointTimeout / time.Millisecond),
		Points:    st.Specs,
	}
	if r.mode == "sampled" {
		req.SampleDetailed = r.opts.SampleDetailed
		req.SampleSkip = r.opts.SampleSkip
	}
	backoff := 200 * time.Millisecond
	for attempt := 0; ; attempt++ {
		_, err := c.Batch(ctx, req, func(pt service.BatchPoint) {
			r.commit(c.Base, st.Bench, pt)
		})
		if err == nil {
			return nil
		}
		if ctx.Err() != nil || attempt >= r.opts.Retries {
			return err
		}
		r.logf("cluster: %s: batch %d retry %d after: %v", c.Base, st.ID, attempt+1, err)
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(backoff):
		}
		if backoff < 2*time.Second {
			backoff *= 2
		}
	}
}

// commit offers one streamed point to the merger. Losing (duplicate) commits
// are dropped silently — that is the exactly-once guarantee under work
// stealing. A winning commit of a failed point records the sweep's first
// error and, without KeepGoing, stops the fleet.
func (r *run) commit(endpoint, bench string, pt service.BatchPoint) {
	if !r.merger.Commit(pt.Seq, &Row{Bench: bench, Point: pt, Endpoint: endpoint}) {
		return
	}
	if pt.Error == "" {
		return
	}
	err := fmt.Errorf("%s w%d d%d rob%d (seq %d): %s", bench, pt.Width, pt.Depth, pt.ROB, pt.Seq, pt.Error)
	r.logf("cluster: point failed: %v", err)
	r.mu.Lock()
	if r.firstErr == nil {
		r.firstErr = err
	}
	r.mu.Unlock()
	if !r.opts.KeepGoing {
		r.cancel(err)
		r.sched.stop()
	}
}

// summary assembles the fleet report, scraping each node's /metrics for
// cache hit rates and service-side latency.
func (r *run) summary(ctx context.Context, clients []*Client, plan Plan, elapsed time.Duration) *RunStats {
	_, _, stolen := r.sched.stats()
	wins := r.merger.PerEndpoint()
	rs := &RunStats{
		Points:  plan.Points,
		OK:      r.merger.Committed() - r.merger.Failed(),
		Failed:  r.merger.Failed(),
		Batches: len(plan.Batches),
		Stolen:  stolen,
		Elapsed: elapsed,
		Insts:   r.opts.Insts,
	}
	for _, c := range clients {
		acc := r.nodes[c.Base]
		acc.mu.Lock()
		ns := NodeStats{
			Endpoint: c.Base,
			Healthy:  acc.healthy,
			Dead:     acc.dead,
			Batches:  acc.batches,
			Points:   wins[c.Base],
			Busy:     acc.busy,
		}
		qs := acc.lat.Quantiles(0.5, 0.99)
		acc.mu.Unlock()
		ns.BatchP50MS, ns.BatchP99MS = qs[0], qs[1]
		if ns.Healthy && ctx.Err() == nil {
			sctx, cancel := context.WithTimeout(ctx, 2*time.Second)
			if m, err := c.Metrics(sctx); err == nil {
				ns.Metrics = &m
			}
			cancel()
		}
		rs.Nodes = append(rs.Nodes, ns)
	}
	sort.Slice(rs.Nodes, func(i, j int) bool { return rs.Nodes[i].Endpoint < rs.Nodes[j].Endpoint })
	return rs
}

// FprintSummary renders the end-of-sweep fleet summary: totals, then one
// line per node with throughput, dispatch latency, and cache hit rates.
func (rs *RunStats) FprintSummary(w io.Writer) {
	fmt.Fprintf(w, "cluster: %d points (%d ok, %d failed) in %s across %d endpoints: %d batches, %d stolen\n",
		rs.Points, rs.OK, rs.Failed, rs.Elapsed.Round(time.Millisecond), len(rs.Nodes), rs.Batches, rs.Stolen)
	var hits, misses uint64
	for _, n := range rs.Nodes {
		state := ""
		switch {
		case !n.Healthy:
			state = " [down at start]"
		case n.Dead:
			state = " [abandoned]"
		}
		fmt.Fprintf(w, "cluster:   %s%s: %d points in %d batches, %.2f Minst/s, batch p50 %.0fms p99 %.0fms",
			n.Endpoint, state, n.Points, n.Batches, n.MinstPerSec(rs.Insts), n.BatchP50MS, n.BatchP99MS)
		if m := n.Metrics; m != nil {
			fmt.Fprintf(w, ", overlay %.0f%% trace %.0f%% hit",
				100*m.OverlayCache.HitRate, 100*m.TraceCache.HitRate)
			hits += m.OverlayCache.Hits + m.TraceCache.Hits
			misses += m.OverlayCache.Misses + m.TraceCache.Misses
		}
		fmt.Fprintln(w)
	}
	if hits+misses > 0 {
		fmt.Fprintf(w, "cluster: fleet caches: %.0f%% hit (%d hits, %d misses)\n",
			100*float64(hits)/float64(hits+misses), hits, misses)
	}
	if f := rs.Caches(); f.TraceFills+f.OverlayFills+f.FillErrors > 0 {
		fmt.Fprintf(w, "cluster: peer fills: %d traces, %d overlays fetched (%.1f MB); computed fleet-wide: %d traces, %d overlays; %d fill errors\n",
			f.TraceFills, f.OverlayFills, float64(f.FillBytesFetched)/1e6,
			f.TracesComputed, f.OverlaysComputed, f.FillErrors)
	}
}
