// Package core implements interval analysis — the paper's contribution.
//
// Interval analysis models superscalar execution as a sequence of intervals
// delimited by miss events (branch mispredictions, I-cache misses, long
// D-cache misses). Between events a balanced processor sustains its dispatch
// width D, so total cycles decompose as N/D plus a penalty per event. The
// package provides:
//
//   - Segment: partition an execution into inter-miss intervals (burstiness
//     structure, interval-length distributions).
//   - Decompose: split each measured misprediction penalty into the paper's
//     five contributors — frontend pipeline length, window occupancy driven
//     by the distance since the last miss event, inherent ILP (unit-latency
//     critical path), functional-unit latencies, and short (L1) D-cache
//     misses — by computing critical paths over the exact window contents
//     the detailed simulator recorded.
//   - Model: an analytic interval model that predicts per-event penalties
//     and whole-program CPI from a fast functional profile (predictor +
//     caches only) plus the program's ILP characteristic, validated against
//     the cycle-level simulator.
package core

import (
	"cmp"
	"fmt"
	"slices"

	"intervalsim/internal/cache"
	"intervalsim/internal/stats"
	"intervalsim/internal/uarch"
)

// Interval is a run of instructions ended by a miss event (or by the end of
// the trace for the final interval).
type Interval struct {
	Start uint64          // index of the first instruction in the interval
	End   uint64          // index one past the terminating event's instruction
	Kind  uarch.EventKind // kind of the terminating event
	Level cache.Level     // hierarchy level for cache-event terminators
	Final bool            // true for the trailing event-less interval
}

// Len returns the interval length in instructions, including the instruction
// that caused the terminating event.
func (iv Interval) Len() uint64 { return iv.End - iv.Start }

// Segment partitions an execution of totalInsts instructions into intervals
// using the recorded miss events, given in any order. The events of one
// instruction (e.g. an I-cache miss while fetching a branch that then
// mispredicts) collapse into one boundary, of the event boundary picks. The
// returned intervals exactly tile [0, totalInsts).
func Segment(events []uarch.MissEvent, totalInsts uint64) ([]Interval, error) {
	evs := inIndexOrder(events)
	var out []Interval
	var start uint64
	for i := 0; i < len(evs); {
		ev, next := boundary(evs, i)
		if ev.Index >= totalInsts {
			return nil, beyondTrace(ev.Index, totalInsts)
		}
		out = append(out, Interval{Start: start, End: ev.Index + 1, Kind: ev.Kind, Level: ev.Level})
		start = ev.Index + 1
		i = next
	}
	if start < totalInsts {
		out = append(out, Interval{Start: start, End: totalInsts, Final: true})
	}
	return out, nil
}

// inIndexOrder returns events in index order: events itself when it already
// is, as every profile built from an overlay is, and otherwise a copy sorted
// stably by index, so the events of one instruction keep their stream order.
// The cycle-level simulator records long D-misses at issue, out of order.
func inIndexOrder(events []uarch.MissEvent) []uarch.MissEvent {
	for i := 1; i < len(events); i++ {
		if events[i].Index < events[i-1].Index {
			evs := slices.Clone(events)
			slices.SortStableFunc(evs, func(a, b uarch.MissEvent) int { return cmp.Compare(a.Index, b.Index) })
			return evs
		}
	}
	return events
}

// boundary is the boundary rule of Segment and PredictCPI. Of the events on
// the instruction of evs[i] — evs[i:next] in an index-ordered stream — it
// returns the one that ends the interval there: the first of the highest
// priority (mispredict > value-misspec > I-cache > long D-miss).
func boundary(evs []uarch.MissEvent, i int) (ev uarch.MissEvent, next int) {
	ev = evs[i]
	for next = i + 1; next < len(evs) && evs[next].Index == ev.Index; next++ {
		if eventPriority(evs[next].Kind) > eventPriority(ev.Kind) {
			ev = evs[next]
		}
	}
	return ev, next
}

// beyondTrace is the error of an event at or past the end of the trace.
func beyondTrace(index, totalInsts uint64) error {
	return fmt.Errorf("%w: event index %d beyond trace length %d", ErrBadInput, index, totalInsts)
}

func eventPriority(k uarch.EventKind) int {
	switch k {
	case uarch.EvBranchMispredict:
		return 4
	case uarch.EvValueMisspec:
		// A value misspeculation is a pipeline flush like a mispredict; it
		// outranks the cache events that can share its instruction (a
		// misspeculated load can itself long-miss).
		return 3
	case uarch.EvICacheMiss:
		return 2
	default:
		return 1
	}
}

// IntervalStats summarizes a segmentation.
type IntervalStats struct {
	Count     uint64
	ByKind    map[uarch.EventKind]uint64
	Lengths   stats.Running
	LengthLog *stats.Log2Histogram
}

// Summarize aggregates interval counts and the length distribution
// (log2-bucketed up to 2^buckets instructions).
func Summarize(intervals []Interval, buckets int) IntervalStats {
	s := IntervalStats{
		ByKind:    make(map[uarch.EventKind]uint64),
		LengthLog: stats.NewLog2Histogram(buckets),
	}
	for _, iv := range intervals {
		if iv.Final {
			continue // not terminated by an event
		}
		s.Count++
		s.ByKind[iv.Kind]++
		s.Lengths.Add(float64(iv.Len()))
		s.LengthLog.Add(iv.Len())
	}
	return s
}
