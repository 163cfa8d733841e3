package exec

import (
	"sync/atomic"
	"testing"

	"db4ml/internal/isolation"
	"db4ml/internal/itx"
	"db4ml/internal/numa"
	"db4ml/internal/storage"
)

// counterSub increments its record once per iteration until it reaches
// target, then returns Done.
type counterSub struct {
	rec    *storage.IterativeRecord
	target uint64
	val    uint64
	buf    storage.Payload
}

func (s *counterSub) Begin(ctx *itx.Ctx) {
	s.buf = make(storage.Payload, 1)
}

func (s *counterSub) Execute(ctx *itx.Ctx) {
	ctx.Read(s.rec, s.buf)
	s.val = s.buf[0] + 1
	s.buf[0] = s.val
	ctx.Write(s.rec, s.buf)
}

func (s *counterSub) Validate(ctx *itx.Ctx) itx.Action {
	if s.val >= s.target {
		return itx.Done
	}
	return itx.Commit
}

func newCounterSubs(n int, target uint64) ([]itx.Sub, []*storage.IterativeRecord) {
	subs := make([]itx.Sub, n)
	recs := make([]*storage.IterativeRecord, n)
	for i := range subs {
		recs[i] = storage.NewIterativeRecord(storage.Payload{0}, 1)
		subs[i] = &counterSub{rec: recs[i], target: target}
	}
	return subs, recs
}

// runJob runs subs as one job on a fresh pool built from pc — NewPool,
// Submit, Wait, Close — and returns the job's stats. Failures are reported
// with t.Errorf, so it may run off the test goroutine.
func runJob(t testing.TB, pc Config, opts isolation.Options, jc JobConfig, subs []itx.Sub) Stats {
	t.Helper()
	p, err := NewPool(pc)
	if err != nil {
		t.Errorf("NewPool: %v", err)
		return Stats{}
	}
	defer p.Close()
	j, err := p.Submit(subs, opts, jc)
	if err != nil {
		t.Errorf("Submit: %v", err)
		return Stats{}
	}
	stats, err := j.Wait()
	if err != nil {
		t.Errorf("Wait: %v", err)
	}
	return stats
}

func TestAsyncRunsToConvergence(t *testing.T) {
	const n, target = 500, 10
	subs, recs := newCounterSubs(n, target)
	stats := runJob(t, Config{Workers: 4}, isolation.Options{Level: isolation.Asynchronous}, JobConfig{BatchSize: 32}, subs)
	out := make(storage.Payload, 1)
	for i, rec := range recs {
		rec.ReadRelaxed(out)
		if out[0] != target {
			t.Fatalf("record %d = %d, want %d", i, out[0], target)
		}
	}
	if stats.Commits != n*target {
		t.Fatalf("Commits = %d, want %d", stats.Commits, n*target)
	}
	if stats.Executions != stats.Commits+stats.Rollbacks {
		t.Fatalf("Executions %d != Commits %d + Rollbacks %d", stats.Executions, stats.Commits, stats.Rollbacks)
	}
	if stats.Elapsed <= 0 {
		t.Fatal("Elapsed not measured")
	}
}

func TestSyncRunsToConvergence(t *testing.T) {
	const n, target = 100, 7
	subs, recs := newCounterSubs(n, target)
	stats := runJob(t, Config{Workers: 4}, isolation.Options{Level: isolation.Synchronous}, JobConfig{BatchSize: 16}, subs)
	out := make(storage.Payload, 1)
	for i, rec := range recs {
		rec.ReadRelaxed(out)
		if out[0] != target {
			t.Fatalf("record %d = %d, want %d", i, out[0], target)
		}
	}
	if stats.Rounds != target {
		t.Fatalf("Rounds = %d, want %d (every sub converges in lockstep)", stats.Rounds, target)
	}
}

// ringSub reads its left neighbor's value and writes neighbor+1 to its own
// record. Under BSP (synchronous) semantics the state after R rounds is
// deterministic regardless of worker count: every record holds exactly R.
type ringSub struct {
	mine, left *storage.IterativeRecord
	rounds     uint64
	buf        storage.Payload
}

func (s *ringSub) Begin(ctx *itx.Ctx) { s.buf = make(storage.Payload, 1) }

func (s *ringSub) Execute(ctx *itx.Ctx) {
	ctx.Read(s.left, s.buf)
	v := s.buf[0] + 1
	s.buf[0] = v
	ctx.Write(s.mine, s.buf)
}

func (s *ringSub) Validate(ctx *itx.Ctx) itx.Action {
	if ctx.Iteration()+1 >= s.rounds {
		return itx.Done
	}
	return itx.Commit
}

func TestSyncBSPDeterminism(t *testing.T) {
	const n = 64
	const rounds = 9
	for _, workers := range []int{1, 2, 4, 7} {
		recs := make([]*storage.IterativeRecord, n)
		for i := range recs {
			recs[i] = storage.NewIterativeRecord(storage.Payload{0}, 1)
		}
		subs := make([]itx.Sub, n)
		for i := range subs {
			subs[i] = &ringSub{mine: recs[i], left: recs[(i+n-1)%n], rounds: rounds}
		}
		runJob(t, Config{Workers: workers}, isolation.Options{Level: isolation.Synchronous}, JobConfig{BatchSize: 8}, subs)
		out := make(storage.Payload, 1)
		for i, rec := range recs {
			rec.ReadRelaxed(out)
			if out[0] != rounds {
				t.Fatalf("workers=%d record %d = %d, want %d (BSP determinism broken)",
					workers, i, out[0], rounds)
			}
		}
	}
}

// rollbackSub requests Rollback for its first k attempts, then commits.
type rollbackSub struct {
	rec      *storage.IterativeRecord
	failures int
	attempts int
}

func (s *rollbackSub) Begin(ctx *itx.Ctx) {}
func (s *rollbackSub) Execute(ctx *itx.Ctx) {
	s.attempts++
	ctx.Write(s.rec, storage.Payload{uint64(s.attempts)})
}
func (s *rollbackSub) Validate(ctx *itx.Ctx) itx.Action {
	if s.attempts <= s.failures {
		return itx.Rollback
	}
	return itx.Done
}

func TestRollbackRetriesIteration(t *testing.T) {
	rec := storage.NewIterativeRecord(storage.Payload{0}, 1)
	sub := &rollbackSub{rec: rec, failures: 3}
	stats := runJob(t, Config{Workers: 2}, isolation.Options{Level: isolation.Asynchronous}, JobConfig{}, []itx.Sub{sub})
	if stats.Rollbacks != 3 {
		t.Fatalf("Rollbacks = %d, want 3", stats.Rollbacks)
	}
	if stats.Commits != 1 {
		t.Fatalf("Commits = %d, want 1", stats.Commits)
	}
	out := make(storage.Payload, 1)
	rec.ReadRelaxed(out)
	if out[0] != 4 {
		t.Fatalf("final value %d, want 4 (only the committed attempt installed)", out[0])
	}
}

// neverDoneSub loops forever unless capped.
type neverDoneSub struct{ rec *storage.IterativeRecord }

func (s *neverDoneSub) Begin(ctx *itx.Ctx) {}
func (s *neverDoneSub) Execute(ctx *itx.Ctx) {
	ctx.Write(s.rec, storage.Payload{ctx.Iteration() + 1})
}
func (s *neverDoneSub) Validate(ctx *itx.Ctx) itx.Action { return itx.Commit }

func TestMaxIterationsCapsAsync(t *testing.T) {
	rec := storage.NewIterativeRecord(storage.Payload{0}, 1)
	stats := runJob(t, Config{Workers: 2}, isolation.Options{Level: isolation.Asynchronous}, JobConfig{MaxIterations: 12}, []itx.Sub{&neverDoneSub{rec: rec}})
	if stats.ForcedStops != 1 {
		t.Fatalf("ForcedStops = %d, want 1", stats.ForcedStops)
	}
	if stats.Commits != 12 {
		t.Fatalf("Commits = %d, want 12", stats.Commits)
	}
}

func TestMaxIterationsCapsSync(t *testing.T) {
	rec := storage.NewIterativeRecord(storage.Payload{0}, 1)
	stats := runJob(t, Config{Workers: 2}, isolation.Options{Level: isolation.Synchronous}, JobConfig{MaxIterations: 5}, []itx.Sub{&neverDoneSub{rec: rec}})
	if stats.ForcedStops != 1 {
		t.Fatalf("ForcedStops = %d, want 1", stats.ForcedStops)
	}
	if stats.Rounds != 5 {
		t.Fatalf("Rounds = %d, want 5", stats.Rounds)
	}
}

func TestBatchSizeDoesNotChangeResult(t *testing.T) {
	for _, bs := range []int{1, 4, 64, 1024} {
		subs, recs := newCounterSubs(100, 5)
		runJob(t, Config{Workers: 3}, isolation.Options{Level: isolation.Asynchronous}, JobConfig{BatchSize: bs}, subs)
		out := make(storage.Payload, 1)
		for i, rec := range recs {
			rec.ReadRelaxed(out)
			if out[0] != 5 {
				t.Fatalf("batch size %d: record %d = %d", bs, i, out[0])
			}
		}
	}
}

// regionRecorder records which workers executed it.
type regionRecorder struct {
	workers map[int]bool
}

func (s *regionRecorder) Begin(ctx *itx.Ctx)   { s.workers = map[int]bool{} }
func (s *regionRecorder) Execute(ctx *itx.Ctx) { s.workers[ctx.Worker()] = true }
func (s *regionRecorder) Validate(ctx *itx.Ctx) itx.Action {
	if ctx.Iteration() >= 19 {
		return itx.Done
	}
	return itx.Commit
}

func TestRegionRoutingKeepsWorkInRegion(t *testing.T) {
	top := numa.NewTopology(2, 4) // workers 0,2 -> region 0; 1,3 -> region 1
	subs := make([]itx.Sub, 8)
	recorders := make([]*regionRecorder, 8)
	for i := range subs {
		recorders[i] = &regionRecorder{}
		subs[i] = recorders[i]
	}
	regionOf := func(i int) int { return i % 2 }
	// Stealing off: this test pins queue *routing* — every batch is
	// processed only by its home region's workers. The steal fallback is
	// covered by TestWorkStealingDrainsSkewedRegion.
	runJob(t, Config{Workers: 4, Topology: top, DisableWorkStealing: true}, isolation.Options{Level: isolation.Asynchronous},
		JobConfig{BatchSize: 2, RegionOf: regionOf}, subs)
	for i, r := range recorders {
		wantRegion := i % 2
		for w := range r.workers {
			if top.RegionOf(w) != wantRegion {
				t.Fatalf("sub %d (region %d) executed by worker %d of region %d",
					i, wantRegion, w, top.RegionOf(w))
			}
		}
	}
}

func TestIterationHookInvoked(t *testing.T) {
	var calls atomic.Int64
	subs, _ := newCounterSubs(10, 3)
	stats := runJob(t, Config{Workers: 2}, isolation.Options{Level: isolation.Asynchronous},
		JobConfig{IterationHook: func(worker int) { calls.Add(1) }}, subs)
	if uint64(calls.Load()) != stats.Executions {
		t.Fatalf("hook calls %d != executions %d", calls.Load(), stats.Executions)
	}
}

func TestBoundedStalenessEndToEnd(t *testing.T) {
	// Counter subs under bounded staleness with a generous bound: single
	// writer per record, so everything commits without rollbacks when S is
	// large.
	const n, target = 50, 6
	subs := make([]itx.Sub, n)
	recs := make([]*storage.IterativeRecord, n)
	for i := range subs {
		recs[i] = storage.NewIterativeRecord(storage.Payload{0}, 8)
		subs[i] = &counterSub{rec: recs[i], target: target}
	}
	opts := isolation.Options{Level: isolation.BoundedStaleness, Staleness: 100}
	stats := runJob(t, Config{Workers: 4}, opts, JobConfig{BatchSize: 8}, subs)
	if stats.Rollbacks != 0 {
		t.Fatalf("unexpected rollbacks: %d", stats.Rollbacks)
	}
	out := make(storage.Payload, 1)
	for i, rec := range recs {
		rec.ReadRecent(out)
		if out[0] != target {
			t.Fatalf("record %d = %d", i, out[0])
		}
	}
}

func TestEmptyRun(t *testing.T) {
	stats := runJob(t, Config{Workers: 2}, isolation.Options{Level: isolation.Asynchronous}, JobConfig{}, nil)
	if stats.Executions != 0 {
		t.Fatal("executions on empty run")
	}
	if stats := runJob(t, Config{Workers: 2}, isolation.Options{Level: isolation.Synchronous}, JobConfig{}, nil); stats.Rounds != 0 {
		t.Fatal("rounds on empty sync run")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Workers <= 0 || c.Topology.Regions < 1 {
		t.Fatalf("pool defaults wrong: %+v", c)
	}
	jc := JobConfig{MaxIterations: 5}.withDefaults()
	if jc.BatchSize != DefaultBatchSize || jc.MaxAttempts != 64*5 {
		t.Fatalf("job defaults wrong: %+v", jc)
	}
}
