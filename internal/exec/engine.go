// Package exec implements DB4ML's execution engine for iterative
// sub-transactions (Section 4.1 and Figure 2). The engine is a persistent
// Pool of worker goroutines — stand-ins for the paper's core-pinned
// threads — pinned to simulated NUMA regions and started once; each
// uber-transaction submitted to the pool becomes a Job whose
// sub-transactions are pre-grouped into batches (Section 5.2) that
// circulate through the job's per-region lock-free queues. Workers
// round-robin across the jobs active in their region, so many
// uber-transactions make progress concurrently on one set of cores.
//
// The synchronous isolation level replaces queue circulation with a
// cooperative per-job barrier (Section 5.1): every round, workers first
// execute all live sub-transactions (writes buffered), then — once every
// batch of the round arrived — validate and install. The barrier is
// per-job state, so a synchronous job never stalls the pool's other jobs.
package exec

import (
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"time"

	"db4ml/internal/chaos"
	"db4ml/internal/itx"
	"db4ml/internal/numa"
)

// Recorder extends the per-context history recorder (itx.Recorder) with
// executor-level events: the synchronous scheduler reports every barrier
// phase flip through it, which is what lets internal/check validate that no
// read or install ever crosses the barrier. A nil Recorder disables
// recording at zero cost.
type Recorder interface {
	itx.Recorder
	// RecordBarrier: the job's cooperative barrier flipped to the given
	// phase (PhaseExecute or PhaseInstall) of the given round.
	RecordBarrier(round uint64, phase int32)
}

// DefaultBatchSize is the paper's optimal batch size (Figure 10(b)).
const DefaultBatchSize = 256

// defaultAttemptFactor derives the livelock backstop: when MaxIterations is
// set but MaxAttempts is not, a sub-transaction is force-retired after
// MaxIterations×defaultAttemptFactor finalized attempts (committed or
// rolled back). A run would need a sustained rollback ratio above
// (factor-1)/factor ≈ 98% — perpetual rollback, not ordinary staleness
// churn — before the backstop fires ahead of the iteration cap.
const defaultAttemptFactor = 64

// sampleInterval is the convergence-series cadence of the queued
// schedulers' telemetry sampler (the synchronous scheduler samples per
// round instead).
const sampleInterval = 2 * time.Millisecond

func deriveMaxAttempts(maxIterations uint64) uint64 {
	if maxIterations > math.MaxUint64/defaultAttemptFactor {
		return math.MaxUint64
	}
	return maxIterations * defaultAttemptFactor
}

// Config describes a Pool: its workers, their simulated NUMA layout, and
// the pool-level fault injection. Everything about one job lives in
// JobConfig.
type Config struct {
	// Workers is the number of worker goroutines; defaults to
	// runtime.GOMAXPROCS(0).
	Workers int
	// Topology is the simulated NUMA layout; defaults to
	// numa.PaperTopology(Workers).
	Topology numa.Topology
	// DisableWorkStealing turns off the pool's cross-region work stealing,
	// strictly confining every batch to the workers of its home region.
	// Useful for locality measurements; costs idle cores when regionOf
	// skews work toward few regions.
	DisableWorkStealing bool
	// Chaos, when non-nil, perturbs the pool's steal attempts (SkipSteal);
	// the per-job injection points take JobConfig.Chaos. Test/experiment
	// only; nil — the default — keeps every site a single nil-check. See
	// internal/chaos.
	Chaos chaos.Injector
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Topology.Regions == 0 {
		c.Topology = numa.PaperTopology(c.Workers)
	}
	return c
}

// Resolved returns the configuration with all defaults filled in, so
// callers can see the worker count and topology NewPool will actually use.
func (c Config) Resolved() Config { return c.withDefaults() }

// Validate rejects configurations that could not execute: a topology with
// more regions than workers leaves at least one region without any worker,
// and batches routed there starve forever once work stealing is disabled.
// Defaults are applied before checking, so a zero Config is valid.
func (c Config) Validate() error {
	c = c.withDefaults()
	if c.Topology.Regions > c.Workers {
		return fmt.Errorf(
			"exec: %d workers cannot serve %d NUMA regions: a region would have no worker and its queue would starve once work stealing is disabled",
			c.Workers, c.Topology.Regions)
	}
	return nil
}

// Stats reports what one job did.
type Stats struct {
	// Executions counts Execute calls (including rolled-back iterations).
	Executions uint64
	// Commits counts iterations whose updates were installed.
	Commits uint64
	// Rollbacks counts iterations discarded by user request or staleness
	// violation.
	Rollbacks uint64
	// ForcedStops counts sub-transactions retired by MaxIterations or the
	// MaxAttempts livelock backstop.
	ForcedStops uint64
	// Steals counts batches popped from another region's queue by workers
	// whose own region was drained (queued schedulers only).
	Steals uint64
	// Panics counts panics the supervision layer contained during this job
	// (each one failed the job with resilience.ErrJobPanicked).
	Panics uint64
	// Rounds counts barrier rounds (synchronous level only).
	Rounds uint64
	// Elapsed is the wall-clock duration of the job.
	Elapsed time.Duration
	// AvgWorkerBusy and MaxWorkerBusy aggregate the time each worker
	// spent actually processing sub-transactions (excluding idle
	// spinning), the per-worker runtime Figure 9 reports. The average is
	// taken over workers with nonzero busy time: workers that never
	// received a batch (more workers than work) would otherwise dilute it
	// toward zero.
	AvgWorkerBusy time.Duration
	MaxWorkerBusy time.Duration
}

// counters aggregates hot-path statistics with atomics.
type counters struct {
	executions  atomic.Uint64
	commits     atomic.Uint64
	rollbacks   atomic.Uint64
	forcedStops atomic.Uint64
	steals      atomic.Uint64
	panics      atomic.Uint64
	busy        []atomic.Int64 // per-worker processing nanoseconds
}

func newCounters(workers int) *counters {
	return &counters{busy: make([]atomic.Int64, workers)}
}

func (c *counters) into(stats *Stats) {
	stats.Executions += c.executions.Load()
	stats.Commits += c.commits.Load()
	stats.Rollbacks += c.rollbacks.Load()
	stats.ForcedStops += c.forcedStops.Load()
	stats.Steals += c.steals.Load()
	stats.Panics += c.panics.Load()
	var sum, max int64
	active := 0
	for i := range c.busy {
		b := c.busy[i].Load()
		sum += b
		if b > 0 {
			active++
		}
		if b > max {
			max = b
		}
	}
	if active > 0 {
		stats.AvgWorkerBusy = time.Duration(sum / int64(active))
		stats.MaxWorkerBusy = time.Duration(max)
	}
}

// SumStats combines the stats of one uber-transaction's parts: counters
// add, while Rounds, Elapsed and MaxWorkerBusy take the maximum (the parts
// run side by side, and under a global barrier they count the same rounds)
// and AvgWorkerBusy averages the parts whose workers did any work. One
// part's stats come back unchanged.
func SumStats(parts []Stats) Stats {
	var out Stats
	busy := 0
	for _, s := range parts {
		out.Executions += s.Executions
		out.Commits += s.Commits
		out.Rollbacks += s.Rollbacks
		out.ForcedStops += s.ForcedStops
		out.Steals += s.Steals
		out.Panics += s.Panics
		out.Rounds = max(out.Rounds, s.Rounds)
		out.Elapsed = max(out.Elapsed, s.Elapsed)
		out.MaxWorkerBusy = max(out.MaxWorkerBusy, s.MaxWorkerBusy)
		if s.AvgWorkerBusy > 0 {
			out.AvgWorkerBusy += s.AvgWorkerBusy
			busy++
		}
	}
	if busy > 0 {
		out.AvgWorkerBusy /= time.Duration(busy)
	}
	return out
}

// sched is one scheduled sub-transaction with its reusable context.
type sched struct {
	sub       itx.Sub
	ctx       *itx.Ctx
	begun     bool
	converged bool
	action    itx.Action // sync level: verdict carried between phases
}

// batch groups sub-transactions for scheduling; the queues hold batches,
// not individual sub-transactions (Section 5.2).
type batch struct {
	subs []sched // a window of the job's sched slab
	home int     // region whose queue the batch recirculates through
	live int64   // non-converged subs in this batch; owned by the processing worker
	// enq stamps when the batch was pushed (nanoseconds since the job's
	// start; 0 = unstamped), the queue-wait measurement. Written by the
	// pusher before Push and read by the popper after Pop, so ownership
	// transfers with the batch like live. Only set while the job is
	// instrumented — uninstrumented jobs never read the clock here.
	enq int64
}
