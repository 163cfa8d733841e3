package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// Latency identifies one of the engine's log-bucketed latency histograms.
type Latency int

const (
	// AttemptLatency is the duration of one finalized sub-transaction
	// attempt: Execute + Validate (+ Finalize under the queued schedulers).
	AttemptLatency Latency = iota
	// BatchPassLatency is the duration of one batch scheduling pass on one
	// worker.
	BatchPassLatency
	// QueueWaitLatency is a batch's residence time in its region queue,
	// from push to pop.
	QueueWaitLatency
	// BarrierWaitLatency is a synchronous round's barrier arrival skew:
	// the time from the first batch's arrival to the last's — how long the
	// fast batches waited for the stragglers.
	BarrierWaitLatency
	// JobCommitLatency is the end-to-end latency of one ML job: submission
	// through convergence and the uber-transaction's atomic publish.
	JobCommitLatency
	// GCPauseLatency is the duration of one version-GC reclaimer pass over
	// all tables. The reclaimer never stalls workers, so this measures
	// background cost, not a stop-the-world pause.
	GCPauseLatency
	// QueryLatency is the end-to-end latency of one relational plan
	// execution (internal/plan): Execute through cursor exhaustion/close.
	QueryLatency
	// WALAppendLatency is the duration of one WAL append as the committer
	// observes it: enqueue through group-commit acknowledgement (fsync
	// included under the sync-always policy).
	WALAppendLatency
	// CheckpointPauseLatency is the worker-visible pause of one fuzzy
	// checkpoint pass: the time commit locks are held to pin a consistent
	// cut. The scan and file write happen after release, off-worker.
	CheckpointPauseLatency
	// WALFsyncLatency is the duration of one WAL fsync call, as issued by
	// the group-commit batcher (SyncAlways: per batch; Interval: per tick).
	WALFsyncLatency
	// WALBatchRecords is the group-commit batch-size distribution. The
	// recorded unit is records per flushed batch, not nanoseconds — use the
	// raw-unit export path, never the seconds conversion.
	WALBatchRecords
	// CheckpointDuration is the end-to-end duration of one fuzzy checkpoint
	// pass: cut pin through durable rename and WAL truncation — the
	// off-worker cost CheckpointPauseLatency deliberately excludes.
	CheckpointDuration
	// TwoPCPrepareLatency is the duration of one shard's prepare call in a
	// distributed uber-commit.
	TwoPCPrepareLatency
	// TwoPCCommitWindowLatency is the distributed commit window of one
	// uber-transaction: first prepare through last per-shard commit — the
	// span during which a crash needs coordinated recovery.
	TwoPCCommitWindowLatency

	numLatencies
)

var latencyNames = [numLatencies]string{
	"attempt",
	"batch_pass",
	"queue_wait",
	"barrier_wait",
	"job_commit",
	"gc_pause",
	"query",
	"wal_append",
	"checkpoint_pause",
	"wal_fsync",
	"wal_batch_records",
	"checkpoint_duration",
	"twopc_prepare",
	"twopc_commit_window",
}

func (l Latency) String() string {
	if l >= 0 && l < numLatencies {
		return latencyNames[l]
	}
	return "latency(?)"
}

// histBuckets is the bucket count of each histogram: power-of-two
// nanosecond buckets indexed by bits.Len64(v), so bucket k holds values in
// [2^(k-1), 2^k). Bucket 48 tops out above 78 hours — far beyond any job.
const histBuckets = 48

// bucketOf maps a non-negative nanosecond value to its bucket index.
func bucketOf(nanos int64) int {
	if nanos < 0 {
		nanos = 0
	}
	b := bits.Len64(uint64(nanos))
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// BucketUpperNanos returns the inclusive upper bound of bucket i
// (2^i - 1 ns); the last bucket is unbounded (MaxInt64).
func BucketUpperNanos(i int) int64 {
	if i >= histBuckets-1 {
		return math.MaxInt64
	}
	return int64(1)<<uint(i) - 1
}

// histShard is one worker's share of every latency histogram: atomic
// bucket counters plus running sums, written only by that worker's
// recordings so concurrent workers never contend.
type histShard struct {
	buckets [numLatencies][histBuckets]atomic.Uint64
	sum     [numLatencies]atomic.Int64
	max     [numLatencies]atomic.Int64
}

func (h *histShard) record(l Latency, nanos int64) {
	if nanos < 0 {
		nanos = 0
	}
	h.buckets[l][bucketOf(nanos)].Add(1)
	h.sum[l].Add(nanos)
	for {
		m := h.max[l].Load()
		if nanos <= m || h.max[l].CompareAndSwap(m, nanos) {
			break
		}
	}
}

// BucketCount is one non-empty histogram bucket in a snapshot:
// Count values fell in (previous bucket's upper bound, UpperNanos].
type BucketCount struct {
	UpperNanos int64  `json:"le_ns"`
	Count      uint64 `json:"count"`
}

// HistogramStats is the merged, exportable state of one latency histogram:
// quantiles plus the sparse bucket counts they were computed from, so
// snapshots from different workers, attempts, or jobs merge losslessly
// (bucket counts add) and quantiles can be recomputed after any merge.
type HistogramStats struct {
	Count    uint64 `json:"count"`
	SumNanos int64  `json:"sum_ns"`
	MaxNanos int64  `json:"max_ns"`
	P50Nanos int64  `json:"p50_ns"`
	P95Nanos int64  `json:"p95_ns"`
	P99Nanos int64  `json:"p99_ns"`
	// Buckets lists the non-empty buckets in ascending bound order.
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// dense rebuilds the full bucket array from the sparse snapshot form.
func (h HistogramStats) dense() (out [histBuckets]uint64) {
	for _, b := range h.Buckets {
		out[bucketOf(b.UpperNanos)] += b.Count
	}
	return out
}

// Merge returns the histogram combining h's and o's samples; quantiles are
// recomputed from the summed buckets.
func (h HistogramStats) Merge(o HistogramStats) HistogramStats {
	a, b := h.dense(), o.dense()
	for i := range a {
		a[i] += b[i]
	}
	m := histFromDense(a)
	m.SumNanos = h.SumNanos + o.SumNanos
	if o.MaxNanos > h.MaxNanos {
		m.MaxNanos = o.MaxNanos
	} else {
		m.MaxNanos = h.MaxNanos
	}
	return m
}

// Quantile returns the p-quantile (0 < p <= 1) estimated from the bucket
// counts: the value returned lies inside the bucket containing the p-rank
// sample, linearly interpolated within it. 0 when the histogram is empty.
func (h HistogramStats) Quantile(p float64) int64 {
	return quantileFromDense(h.dense(), h.Count, p)
}

func quantileFromDense(buckets [histBuckets]uint64, count uint64, p float64) int64 {
	if count == 0 || p <= 0 {
		return 0
	}
	if p > 1 {
		p = 1
	}
	rank := uint64(math.Ceil(p * float64(count)))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for i, c := range buckets {
		if c == 0 {
			continue
		}
		if cum+c >= rank {
			// Interpolate within bucket i: values span [lo, hi].
			lo := int64(0)
			if i > 0 {
				lo = int64(1) << uint(i-1)
			}
			hi := BucketUpperNanos(i)
			if i == histBuckets-1 {
				hi = lo * 2 // unbounded tail: keep the estimate finite
			}
			frac := float64(rank-cum) / float64(c)
			return lo + int64(frac*float64(hi-lo))
		}
		cum += c
	}
	return BucketUpperNanos(histBuckets - 1)
}

func histFromDense(buckets [histBuckets]uint64) HistogramStats {
	var h HistogramStats
	for i, c := range buckets {
		if c == 0 {
			continue
		}
		h.Count += c
		h.Buckets = append(h.Buckets, BucketCount{UpperNanos: BucketUpperNanos(i), Count: c})
	}
	h.P50Nanos = quantileFromDense(buckets, h.Count, 0.50)
	h.P95Nanos = quantileFromDense(buckets, h.Count, 0.95)
	h.P99Nanos = quantileFromDense(buckets, h.Count, 0.99)
	return h
}

// LatencySnapshot carries every latency histogram of one Snapshot.
type LatencySnapshot struct {
	Attempt     HistogramStats `json:"attempt"`
	BatchPass   HistogramStats `json:"batch_pass"`
	QueueWait   HistogramStats `json:"queue_wait"`
	BarrierWait HistogramStats `json:"barrier_wait"`
	JobCommit   HistogramStats `json:"job_commit"`
	GCPause     HistogramStats `json:"gc_pause"`
	Query       HistogramStats `json:"query"`
	WALAppend   HistogramStats `json:"wal_append"`
	CkptPause   HistogramStats `json:"checkpoint_pause"`
	WALFsync    HistogramStats `json:"wal_fsync"`
	// WALBatch is a size distribution (records per flushed group-commit
	// batch), recorded through the same log₂ buckets as the latencies.
	WALBatch     HistogramStats `json:"wal_batch_records"`
	CkptDuration HistogramStats `json:"checkpoint_duration"`
	Prepare      HistogramStats `json:"twopc_prepare"`
	CommitWindow HistogramStats `json:"twopc_commit_window"`
}

// ByName returns the named histogram (see Latency.String), ok=false for an
// unknown name.
func (ls LatencySnapshot) ByName(name string) (HistogramStats, bool) {
	switch name {
	case "attempt":
		return ls.Attempt, true
	case "batch_pass":
		return ls.BatchPass, true
	case "queue_wait":
		return ls.QueueWait, true
	case "barrier_wait":
		return ls.BarrierWait, true
	case "job_commit":
		return ls.JobCommit, true
	case "gc_pause":
		return ls.GCPause, true
	case "query":
		return ls.Query, true
	case "wal_append":
		return ls.WALAppend, true
	case "checkpoint_pause":
		return ls.CkptPause, true
	case "wal_fsync":
		return ls.WALFsync, true
	case "wal_batch_records":
		return ls.WALBatch, true
	case "checkpoint_duration":
		return ls.CkptDuration, true
	case "twopc_prepare":
		return ls.Prepare, true
	case "twopc_commit_window":
		return ls.CommitWindow, true
	}
	return HistogramStats{}, false
}

// Merge combines two latency snapshots histogram-by-histogram.
func (ls LatencySnapshot) Merge(o LatencySnapshot) LatencySnapshot {
	return LatencySnapshot{
		Attempt:      ls.Attempt.Merge(o.Attempt),
		BatchPass:    ls.BatchPass.Merge(o.BatchPass),
		QueueWait:    ls.QueueWait.Merge(o.QueueWait),
		BarrierWait:  ls.BarrierWait.Merge(o.BarrierWait),
		JobCommit:    ls.JobCommit.Merge(o.JobCommit),
		GCPause:      ls.GCPause.Merge(o.GCPause),
		Query:        ls.Query.Merge(o.Query),
		WALAppend:    ls.WALAppend.Merge(o.WALAppend),
		CkptPause:    ls.CkptPause.Merge(o.CkptPause),
		WALFsync:     ls.WALFsync.Merge(o.WALFsync),
		WALBatch:     ls.WALBatch.Merge(o.WALBatch),
		CkptDuration: ls.CkptDuration.Merge(o.CkptDuration),
		Prepare:      ls.Prepare.Merge(o.Prepare),
		CommitWindow: ls.CommitWindow.Merge(o.CommitWindow),
	}
}

// RecordLatency records one duration sample (in nanoseconds) into worker's
// shard of histogram l. The caller guards with a nil check, like Inc.
func (o *Observer) RecordLatency(worker int, l Latency, nanos int64) {
	if worker < 0 || worker >= len(o.hshards) {
		worker = 0
	}
	o.hshards[worker].record(l, nanos)
}

// latencySnapshot merges the per-worker histogram shards.
func (o *Observer) latencySnapshot() LatencySnapshot {
	var merged [numLatencies][histBuckets]uint64
	var sums, maxs [numLatencies]int64
	for w := range o.hshards {
		sh := &o.hshards[w]
		for l := 0; l < int(numLatencies); l++ {
			for b := 0; b < histBuckets; b++ {
				merged[l][b] += sh.buckets[l][b].Load()
			}
			sums[l] += sh.sum[l].Load()
			if m := sh.max[l].Load(); m > maxs[l] {
				maxs[l] = m
			}
		}
	}
	build := func(l Latency) HistogramStats {
		h := histFromDense(merged[l])
		h.SumNanos = sums[l]
		h.MaxNanos = maxs[l]
		return h
	}
	return LatencySnapshot{
		Attempt:      build(AttemptLatency),
		BatchPass:    build(BatchPassLatency),
		QueueWait:    build(QueueWaitLatency),
		BarrierWait:  build(BarrierWaitLatency),
		JobCommit:    build(JobCommitLatency),
		GCPause:      build(GCPauseLatency),
		Query:        build(QueryLatency),
		WALAppend:    build(WALAppendLatency),
		CkptPause:    build(CheckpointPauseLatency),
		WALFsync:     build(WALFsyncLatency),
		WALBatch:     build(WALBatchRecords),
		CkptDuration: build(CheckpointDuration),
		Prepare:      build(TwoPCPrepareLatency),
		CommitWindow: build(TwoPCCommitWindowLatency),
	}
}
