package exec

import (
	"sync/atomic"
	"testing"
	"time"

	"db4ml/internal/isolation"
	"db4ml/internal/itx"
	"db4ml/internal/numa"
	"db4ml/internal/storage"
)

// TestSyncStragglerStallsEveryone verifies the barrier semantics the paper
// relies on in Figure 9: with a straggling worker under the synchronous
// level, every round waits for the straggler, so total runtime grows with
// the straggler's delay — whereas async lets the other workers race ahead.
func TestSyncStragglerStallsEveryone(t *testing.T) {
	const n = 16
	const iters = 4
	mkSubs := func() []itx.Sub {
		subs, _ := newCounterSubs(n, iters)
		return subs
	}
	hook := func(worker int) {
		if worker == 1 {
			time.Sleep(2 * time.Millisecond)
		}
	}
	// Pin the straggler's ownership: two single-worker regions without
	// stealing, so worker 1 must process every odd-indexed sub itself and
	// the pool cannot load-balance around it.
	syncStats := runJob(t,
		Config{Workers: 2, Topology: numa.NewTopology(2, 2), DisableWorkStealing: true},
		isolation.Options{Level: isolation.Synchronous}, JobConfig{BatchSize: 2, IterationHook: hook}, mkSubs())
	// Worker 1 owns n/2 subs; each round costs it ≥ (n/2)·2ms, and the
	// barrier makes the whole round that slow.
	minSync := time.Duration(iters*(n/2)*2) * time.Millisecond
	if syncStats.Elapsed < minSync {
		t.Fatalf("sync run with straggler finished in %v, barrier should enforce ≥ %v",
			syncStats.Elapsed, minSync)
	}
}

// TestAsyncProgressDespiteStraggler: under async, non-straggling workers
// finish their sub-transactions without waiting for the straggler's.
func TestAsyncProgressDespiteStraggler(t *testing.T) {
	const n = 8
	recs := make([]*storage.IterativeRecord, n)
	subs := make([]itx.Sub, n)
	for i := range subs {
		recs[i] = storage.NewIterativeRecord(storage.Payload{0}, 1)
		subs[i] = &counterSub{rec: recs[i], target: 3}
	}
	var hookCalls atomic.Int64
	hook := func(worker int) {
		hookCalls.Add(1)
		if worker == 1 {
			time.Sleep(time.Millisecond)
		}
	}
	stats := runJob(t, Config{Workers: 2}, isolation.Options{Level: isolation.Asynchronous},
		JobConfig{BatchSize: 1, IterationHook: hook}, subs)
	if stats.Commits != n*3 {
		t.Fatalf("commits = %d", stats.Commits)
	}
	if hookCalls.Load() != int64(stats.Executions) {
		t.Fatalf("hook calls %d != executions %d", hookCalls.Load(), stats.Executions)
	}
}

// TestWorkersExceedSubs: more workers than work must not deadlock or
// duplicate execution.
func TestWorkersExceedSubs(t *testing.T) {
	subs, recs := newCounterSubs(2, 3)
	stats := runJob(t, Config{Workers: 8}, isolation.Options{Level: isolation.Asynchronous}, JobConfig{BatchSize: 4}, subs)
	if stats.Commits != 6 {
		t.Fatalf("commits = %d, want 6", stats.Commits)
	}
	out := make(storage.Payload, 1)
	for i, rec := range recs {
		rec.ReadRelaxed(out)
		if out[0] != 3 {
			t.Fatalf("record %d = %d", i, out[0])
		}
	}
}

// TestRegionWithNoSubs: a region whose queue is empty from the start must
// not wedge its workers.
func TestRegionWithNoSubs(t *testing.T) {
	subs, _ := newCounterSubs(4, 2)
	// Route everything to region 0; workers of other regions spin-yield
	// until global completion.
	stats := runJob(t, Config{Workers: 4}, isolation.Options{Level: isolation.Asynchronous},
		JobConfig{BatchSize: 1, RegionOf: func(i int) int { return 0 }}, subs)
	if stats.Commits != 8 {
		t.Fatalf("commits = %d", stats.Commits)
	}
}
