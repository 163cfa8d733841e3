package introspect

import (
	"sync"

	"db4ml/internal/obs"
)

// Aggregator folds many jobs' observers into the single process-wide
// snapshot /metrics exposes. Observers attach when their job is submitted
// and complete when it settles; completed runs fold their cumulative
// counters and latency histograms into a base that only ever grows, so a
// scrape sees monotone totals across job lifetimes — live observers
// contribute their in-flight state on top.
type Aggregator struct {
	mu   sync.Mutex
	base obs.CounterTotals
	lat  obs.LatencySnapshot
	live map[*obs.Observer]struct{}
}

// NewAggregator returns an empty aggregator.
func NewAggregator() *Aggregator {
	return &Aggregator{live: make(map[*obs.Observer]struct{})}
}

// Attach registers a live observer; its current state contributes to every
// Snapshot until Complete folds it. Attaching nil or an already-attached
// observer is a no-op, as is calling on a nil aggregator — callers may
// thread an optional *Aggregator through without guarding.
func (a *Aggregator) Attach(o *obs.Observer) {
	if a == nil || o == nil {
		return
	}
	a.mu.Lock()
	a.live[o] = struct{}{}
	a.mu.Unlock()
}

// Complete folds a finished observer's final snapshot into the base totals
// and detaches it. Completing an observer that was never attached still
// folds it (the job ran to completion before any scrape saw it live).
// A nil aggregator or observer is a no-op.
func (a *Aggregator) Complete(o *obs.Observer) {
	if a == nil || o == nil {
		return
	}
	snap := o.Snapshot()
	a.mu.Lock()
	delete(a.live, o)
	a.base.Add(snap.Cumulative)
	a.lat = a.lat.Merge(snap.Latencies)
	a.mu.Unlock()
}

// Sum merges the snapshots of a database's aggregators — one per kernel —
// into the one /metrics renders: counters and latency histograms add up,
// and so do the gauges' last samples and the worker counts (cluster-wide
// queue depth is the sum of the kernels' queues). The sum of one
// aggregator is its own snapshot. aggs must not be empty.
func Sum(aggs []*Aggregator) obs.Snapshot {
	out := aggs[0].Snapshot()
	for _, a := range aggs[1:] {
		snap := a.Snapshot()
		out.Counters.Add(snap.Counters)
		out.Cumulative.Add(snap.Cumulative)
		out.Latencies = out.Latencies.Merge(snap.Latencies)
		out.LiveSubs.Last += snap.LiveSubs.Last
		out.QueueDepth.Last += snap.QueueDepth.Last
		out.Workers += snap.Workers
	}
	return out
}

// Snapshot returns the process-wide telemetry view: base totals from
// completed jobs plus every live observer's cumulative state. Counters and
// Cumulative carry the same (already cross-attempt) totals; gauges report
// the last-attached live observer's samples, as a point-in-time hint.
func (a *Aggregator) Snapshot() obs.Snapshot {
	a.mu.Lock()
	totals := a.base
	lat := a.lat
	liveObs := make([]*obs.Observer, 0, len(a.live))
	for o := range a.live {
		liveObs = append(liveObs, o)
	}
	a.mu.Unlock()

	var out obs.Snapshot
	for _, o := range liveObs {
		s := o.Snapshot()
		totals.Add(s.Cumulative)
		lat = lat.Merge(s.Latencies)
		out.LiveSubs = s.LiveSubs
		out.QueueDepth = s.QueueDepth
		out.Workers = s.Workers
	}
	out.Counters = totals
	out.Cumulative = totals
	out.Latencies = lat
	return out
}
