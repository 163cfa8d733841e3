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

// ShardedAggregator folds a cluster's per-shard aggregators into one
// process-wide /metrics view while retaining per-shard snapshots for
// /debug/shards. Each shard's runs attach to that shard's aggregator;
// cluster-level observers (durability, coordinator) conventionally live on
// shard 0's.
type ShardedAggregator struct {
	shards []*Aggregator
}

// NewShardedAggregator returns an aggregator per shard, all empty.
func NewShardedAggregator(n int) *ShardedAggregator {
	s := &ShardedAggregator{shards: make([]*Aggregator, n)}
	for i := range s.shards {
		s.shards[i] = NewAggregator()
	}
	return s
}

// Shard returns shard i's aggregator, or nil on a nil ShardedAggregator —
// so, like Aggregator, an optional one threads through unguarded.
func (s *ShardedAggregator) Shard(i int) *Aggregator {
	if s == nil {
		return nil
	}
	return s.shards[i]
}

// Shards returns the shard count.
func (s *ShardedAggregator) Shards() int { return len(s.shards) }

// Snapshot merges every shard's snapshot into the cluster-wide view:
// counters and latency histograms sum across shards, gauges sum their last
// samples (cluster-wide queue depth is the sum of the shards' queues).
func (s *ShardedAggregator) Snapshot() obs.Snapshot {
	var out obs.Snapshot
	for _, a := range s.shards {
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

// ShardSnapshots returns each shard's own aggregated snapshot (index =
// shard id) — the per-shard breakdown behind the merged Snapshot.
func (s *ShardedAggregator) ShardSnapshots() []obs.Snapshot {
	out := make([]obs.Snapshot, len(s.shards))
	for i, a := range s.shards {
		out[i] = a.Snapshot()
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
