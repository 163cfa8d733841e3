package exec

import (
	"encoding/json"
	"testing"
	"time"

	"db4ml/internal/isolation"
	"db4ml/internal/itx"
	"db4ml/internal/numa"
	"db4ml/internal/obs"
	"db4ml/internal/storage"
)

// TestSnapshotMatchesStats: the telemetry snapshot of an asynchronous run
// must agree with the engine's own Stats and carry gauge samples plus a
// convergence series ending at zero live sub-transactions.
func TestSnapshotMatchesStats(t *testing.T) {
	const n, target = 300, 8
	subs, _ := newCounterSubs(n, target)
	o := obs.New()
	stats := runJob(t, Config{Workers: 4}, isolation.Options{Level: isolation.Asynchronous},
		JobConfig{BatchSize: 16, Observer: o}, subs)

	snap := o.Snapshot()
	if snap.Counters.Executions != stats.Executions {
		t.Fatalf("snapshot executions %d != stats %d", snap.Counters.Executions, stats.Executions)
	}
	if snap.Counters.Commits != stats.Commits {
		t.Fatalf("snapshot commits %d != stats %d", snap.Counters.Commits, stats.Commits)
	}
	if snap.Counters.Rollbacks != stats.Rollbacks {
		t.Fatalf("snapshot rollbacks %d != stats %d", snap.Counters.Rollbacks, stats.Rollbacks)
	}
	if snap.Workers != 4 || len(snap.PerWorker) != 4 {
		t.Fatalf("snapshot workers = %d / %d shards", snap.Workers, len(snap.PerWorker))
	}
	// Per-worker counts must add up to the totals, and only workers with
	// executions may report busy time.
	var perWorkerExecs uint64
	for _, ws := range snap.PerWorker {
		perWorkerExecs += ws.Executions
		if ws.Executions == 0 && ws.BusyNanos > 0 {
			t.Fatalf("worker %d busy %dns without executions", ws.Worker, ws.BusyNanos)
		}
	}
	if perWorkerExecs != snap.Counters.Executions {
		t.Fatalf("per-worker executions %d != total %d", perWorkerExecs, snap.Counters.Executions)
	}
	if snap.QueueDepth.Samples == 0 {
		t.Fatal("no queue-depth samples recorded")
	}
	if snap.LiveSubs.Samples == 0 || snap.LiveSubs.Max > n {
		t.Fatalf("live gauge samples=%d max=%d", snap.LiveSubs.Samples, snap.LiveSubs.Max)
	}
	if len(snap.Convergence) < 2 {
		t.Fatalf("convergence series too short: %d points", len(snap.Convergence))
	}
	first, last := snap.Convergence[0], snap.Convergence[len(snap.Convergence)-1]
	if first.Live != n {
		t.Fatalf("first sample live = %d, want %d", first.Live, n)
	}
	if last.Live != 0 || last.Commits != stats.Commits {
		t.Fatalf("final sample = %+v, want live 0 / commits %d", last, stats.Commits)
	}
	// The snapshot must round-trip as JSON.
	b, err := snap.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back obs.Snapshot
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("snapshot JSON does not round-trip: %v", err)
	}
	if back.Counters.Commits != snap.Counters.Commits {
		t.Fatal("JSON round-trip lost counters")
	}
}

// TestSnapshotRollbackSplit: user-requested rollbacks and staleness
// rollbacks are reported separately.
func TestSnapshotRollbackSplit(t *testing.T) {
	rec := storage.NewIterativeRecord(storage.Payload{0}, 1)
	o := obs.New()
	stats := runJob(t, Config{Workers: 2}, isolation.Options{Level: isolation.Asynchronous},
		JobConfig{Observer: o}, []itx.Sub{&rollbackSub{rec: rec, failures: 3}})
	if stats.Rollbacks != 3 {
		t.Fatalf("Rollbacks = %d", stats.Rollbacks)
	}
	snap := o.Snapshot()
	if snap.Counters.UserRollbacks != 3 || snap.Counters.StalenessRollbacks != 0 {
		t.Fatalf("rollback split = user %d / staleness %d, want 3 / 0",
			snap.Counters.UserRollbacks, snap.Counters.StalenessRollbacks)
	}
}

// TestSnapshotSyncRounds: the synchronous scheduler records one convergence
// point per barrier round (plus the initial sample).
func TestSnapshotSyncRounds(t *testing.T) {
	const n, target = 40, 6
	subs, _ := newCounterSubs(n, target)
	o := obs.New()
	stats := runJob(t, Config{Workers: 3}, isolation.Options{Level: isolation.Synchronous}, JobConfig{Observer: o}, subs)
	snap := o.Snapshot()
	if want := int(stats.Rounds) + 1; len(snap.Convergence) != want {
		t.Fatalf("sync series has %d points, want %d (rounds+initial)", len(snap.Convergence), want)
	}
	if last := snap.Convergence[len(snap.Convergence)-1]; last.Live != 0 {
		t.Fatalf("final sync sample live = %d", last.Live)
	}
	if snap.Counters.Executions != stats.Executions || snap.Counters.Commits != stats.Commits {
		t.Fatal("sync snapshot counters diverge from stats")
	}
}

// TestSnapshotWithoutObserver: a job without an observer runs unaffected.
func TestSnapshotWithoutObserver(t *testing.T) {
	subs, _ := newCounterSubs(10, 3)
	stats := runJob(t, Config{Workers: 2}, isolation.Options{Level: isolation.Asynchronous}, JobConfig{}, subs)
	if stats.Commits != 30 {
		t.Fatalf("Commits = %d", stats.Commits)
	}
}

// alwaysRollbackSub never commits — the perpetual-rollback shape (e.g. a
// sub-transaction SSP-throttled behind a straggler that never advances)
// that used to livelock a job under MaxIterations.
type alwaysRollbackSub struct{}

func (alwaysRollbackSub) Begin(ctx *itx.Ctx)               {}
func (alwaysRollbackSub) Execute(ctx *itx.Ctx)             {}
func (alwaysRollbackSub) Validate(ctx *itx.Ctx) itx.Action { return itx.Rollback }

// TestAlwaysRollbackTerminates is the livelock regression test: a
// sub-transaction that rolls back forever commits zero iterations, so the
// committed-iteration cap alone never fires; the attempt backstop must
// retire it and the job must finish.
func TestAlwaysRollbackTerminates(t *testing.T) {
	done := make(chan Stats, 1)
	o := obs.New()
	go func() {
		done <- runJob(t, Config{Workers: 2}, isolation.Options{Level: isolation.Asynchronous},
			JobConfig{MaxIterations: 5, Observer: o}, []itx.Sub{alwaysRollbackSub{}})
	}()
	var stats Stats
	select {
	case stats = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("job livelocked on an always-rollback sub-transaction")
	}
	if stats.Commits != 0 {
		t.Fatalf("Commits = %d, want 0", stats.Commits)
	}
	if stats.ForcedStops != 1 {
		t.Fatalf("ForcedStops = %d, want 1", stats.ForcedStops)
	}
	// The default backstop is MaxIterations×64 attempts.
	if stats.Rollbacks != 5*64 {
		t.Fatalf("Rollbacks = %d, want %d", stats.Rollbacks, 5*64)
	}
	snap := o.Snapshot()
	if snap.Counters.ForcedStopAttempts != 1 || snap.Counters.ForcedStopIterations != 0 {
		t.Fatalf("forced-stop split = iters %d / attempts %d, want 0 / 1",
			snap.Counters.ForcedStopIterations, snap.Counters.ForcedStopAttempts)
	}
}

// TestMaxAttemptsExplicit: an explicit attempt cap works on its own, without
// MaxIterations.
func TestMaxAttemptsExplicit(t *testing.T) {
	stats := runJob(t, Config{Workers: 1}, isolation.Options{Level: isolation.Asynchronous},
		JobConfig{MaxAttempts: 7}, []itx.Sub{alwaysRollbackSub{}})
	if stats.Executions != 7 || stats.ForcedStops != 1 {
		t.Fatalf("Executions = %d, ForcedStops = %d; want 7, 1", stats.Executions, stats.ForcedStops)
	}
}

// TestMaxIterationsStillCapsCommits: the attempt backstop must not fire
// before the iteration cap on a sub-transaction that commits normally.
func TestMaxIterationsStillCapsCommits(t *testing.T) {
	rec := storage.NewIterativeRecord(storage.Payload{0}, 1)
	stats := runJob(t, Config{Workers: 2}, isolation.Options{Level: isolation.Asynchronous},
		JobConfig{MaxIterations: 12}, []itx.Sub{&neverDoneSub{rec: rec}})
	if stats.Commits != 12 || stats.ForcedStops != 1 {
		t.Fatalf("Commits = %d, ForcedStops = %d", stats.Commits, stats.ForcedStops)
	}
}

// slowCounterSub commits target iterations, sleeping a little per Execute
// so work-stealing windows reliably exist.
type slowCounterSub struct {
	target uint64
	d      time.Duration
}

func (s *slowCounterSub) Begin(ctx *itx.Ctx)   {}
func (s *slowCounterSub) Execute(ctx *itx.Ctx) { time.Sleep(s.d) }
func (s *slowCounterSub) Validate(ctx *itx.Ctx) itx.Action {
	if ctx.Iteration()+1 >= s.target {
		return itx.Done
	}
	return itx.Commit
}

// TestWorkStealingDrainsSkewedRegion: with every sub-transaction routed to
// region 0, region 1's workers must steal instead of spinning idle, and the
// run must still complete exactly.
func TestWorkStealingDrainsSkewedRegion(t *testing.T) {
	const n, target = 64, 6
	subs := make([]itx.Sub, n)
	for i := range subs {
		subs[i] = &slowCounterSub{target: target, d: 200 * time.Microsecond}
	}
	o := obs.New()
	top := numa.NewTopology(2, 4)
	stats := runJob(t, Config{Workers: 4, Topology: top}, isolation.Options{Level: isolation.Asynchronous},
		JobConfig{BatchSize: 1, Observer: o, RegionOf: func(i int) int { return 0 }}, // all work in region 0
		subs)
	if stats.Commits != n*target {
		t.Fatalf("Commits = %d, want %d", stats.Commits, n*target)
	}
	if stats.Steals == 0 {
		t.Fatal("no steals recorded although region 1 was idle")
	}
	snap := o.Snapshot()
	if snap.Counters.Steals != stats.Steals {
		t.Fatalf("snapshot steals %d != stats %d", snap.Counters.Steals, stats.Steals)
	}
	// Only region-1 workers (ids 1 and 3 under the round-robin pinning) had
	// an empty home queue; every steal must come from them.
	for _, ws := range snap.PerWorker {
		if top.RegionOf(ws.Worker) == 0 && ws.Steals > 0 {
			t.Fatalf("home-region worker %d recorded %d steals", ws.Worker, ws.Steals)
		}
	}
}

// TestDisableWorkStealingConfinesWork: with stealing off and all work in
// region 0, region 1's workers stay idle (no steals, no executions) and the
// run still completes.
func TestDisableWorkStealingConfinesWork(t *testing.T) {
	subs, _ := newCounterSubs(16, 4)
	o := obs.New()
	top := numa.NewTopology(2, 4)
	stats := runJob(t, Config{Workers: 4, Topology: top, DisableWorkStealing: true}, isolation.Options{Level: isolation.Asynchronous},
		JobConfig{BatchSize: 2, Observer: o, RegionOf: func(i int) int { return 0 }}, subs)
	if stats.Commits != 16*4 {
		t.Fatalf("Commits = %d", stats.Commits)
	}
	if stats.Steals != 0 {
		t.Fatalf("Steals = %d with stealing disabled", stats.Steals)
	}
	snap := o.Snapshot()
	for _, ws := range snap.PerWorker {
		if top.RegionOf(ws.Worker) == 1 && ws.Executions > 0 {
			t.Fatalf("region-1 worker %d executed %d subs with stealing disabled", ws.Worker, ws.Executions)
		}
	}
}

// TestAvgWorkerBusyIgnoresIdleWorkers: the average covers only workers that
// actually processed something (satellite fix for the Figure-9 per-worker
// runtime skew).
func TestAvgWorkerBusyIgnoresIdleWorkers(t *testing.T) {
	c := newCounters(4)
	c.busy[0].Store(int64(100 * time.Millisecond))
	c.busy[2].Store(int64(300 * time.Millisecond))
	var stats Stats
	c.into(&stats)
	if stats.AvgWorkerBusy != 200*time.Millisecond {
		t.Fatalf("AvgWorkerBusy = %v, want 200ms (average over the 2 active workers)", stats.AvgWorkerBusy)
	}
	if stats.MaxWorkerBusy != 300*time.Millisecond {
		t.Fatalf("MaxWorkerBusy = %v", stats.MaxWorkerBusy)
	}
}

// TestAvgWorkerBusyEndToEnd: with far more workers than work, idle workers
// must not drag the average toward zero.
func TestAvgWorkerBusyEndToEnd(t *testing.T) {
	subs := []itx.Sub{&slowCounterSub{target: 4, d: 2 * time.Millisecond}}
	stats := runJob(t, Config{Workers: 8}, isolation.Options{Level: isolation.Asynchronous}, JobConfig{BatchSize: 1}, subs)
	// One sub × 4 iterations × 2ms runs on few workers; averaging over all
	// 8 would report < 1ms.
	if stats.AvgWorkerBusy < 2*time.Millisecond {
		t.Fatalf("AvgWorkerBusy = %v, idle workers still dilute the average", stats.AvgWorkerBusy)
	}
}
