package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer, or one of the
// benchmark's own phases (names starting "bench."). Op is the grid point or
// request index the call served, -1 outside any.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Op     int32  `json:"op"`
}

// tracer records spans into a preallocated in-memory slice. Every method is
// a no-op on a nil tracer, which is how untraced runs skip the bookkeeping.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

// begin opens a span under parent (-1 for a root), inheriting its op.
func (t *tracer) begin(name string, parent int32) int32 {
	return t.beginOp(name, parent, -1)
}

// beginOp opens a span that serves operation op.
func (t *tracer) beginOp(name string, parent, op int32) int32 {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	if op < 0 && parent >= 0 {
		op = t.spans[parent].Op
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: now, End: now, Op: op})
	return id
}

func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// selfMS returns every span's self time — its duration minus the time its
// children cover — in milliseconds, grouped by span name. Children of one
// span run one after another, so their durations add up without overlap.
func (t *tracer) selfMS() map[string][]float64 {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string][]float64)
	for i, s := range t.spans {
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start-child[i])/1e6)
	}
	return out
}

// coverage is the share of span root's interval that layer spans (every name
// outside "bench.") cover. Concurrent layer spans count once.
func (t *tracer) coverage(root int32) float64 {
	r := t.spans[root]
	var iv [][2]int64
	for _, s := range t.spans {
		if !strings.HasPrefix(s.Name, "bench.") && s.Start >= r.Start && s.End <= r.End {
			iv = append(iv, [2]int64{s.Start, s.End})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var covered, reach int64
	for _, x := range iv {
		if x[0] > reach {
			reach = x[0]
		}
		if x[1] > reach {
			covered += x[1] - reach
			reach = x[1]
		}
	}
	if r.End == r.Start {
		return 0
	}
	return float64(covered) / float64(r.End-r.Start)
}

// spanCostNs measures what recording one span costs, so the traced run can
// state its own overhead.
func spanCostNs() float64 {
	const n = 20000
	t := newTracer()
	start := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.begin("calibrate", -1))
	}
	return float64(time.Since(start).Nanoseconds()) / n
}

func (t *tracer) writeFile(path string) error {
	data, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
