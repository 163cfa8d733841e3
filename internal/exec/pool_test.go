package exec

import (
	"errors"
	"sync"
	"testing"
	"time"

	"db4ml/internal/isolation"
	"db4ml/internal/itx"
	"db4ml/internal/numa"
	"db4ml/internal/obs"
)

func async() isolation.Options { return isolation.Options{Level: isolation.Asynchronous} }

// TestPoolRunsConcurrentJobs: one pool, started once, drives several
// independent jobs submitted together; each job's stats must account for
// exactly its own sub-transactions.
func TestPoolRunsConcurrentJobs(t *testing.T) {
	p, err := NewPool(Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	const jobsN = 3
	const n = 24
	const target = 5
	jobs := make([]*Job, jobsN)
	for i := range jobs {
		subs, recs := newCounterSubs(n, target)
		j, err := p.Submit(subs, async(), JobConfig{BatchSize: 4})
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = j
		_ = recs
	}
	for i, j := range jobs {
		stats, err := j.Wait()
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if stats.Commits != n*target {
			t.Fatalf("job %d commits = %d, want %d", i, stats.Commits, n*target)
		}
		if stats.Rollbacks != 0 || stats.ForcedStops != 0 {
			t.Fatalf("job %d: unexpected rollbacks/forced stops: %+v", i, stats)
		}
	}
}

// TestPoolMixedIsolationJobs: a synchronous job (with its per-job barrier)
// and an asynchronous job share the pool without interfering.
func TestPoolMixedIsolationJobs(t *testing.T) {
	p, err := NewPool(Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	const n = 12
	const target = 4
	syncSubs, _ := newCounterSubs(n, target)
	asyncSubs, _ := newCounterSubs(n, target)
	js, err := p.Submit(syncSubs, isolation.Options{Level: isolation.Synchronous}, JobConfig{BatchSize: 3})
	if err != nil {
		t.Fatal(err)
	}
	ja, err := p.Submit(asyncSubs, async(), JobConfig{BatchSize: 3})
	if err != nil {
		t.Fatal(err)
	}
	syncStats, err := js.Wait()
	if err != nil {
		t.Fatal(err)
	}
	asyncStats, err := ja.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if syncStats.Rounds != target {
		t.Fatalf("sync job rounds = %d, want %d", syncStats.Rounds, target)
	}
	if syncStats.Commits != n*target || asyncStats.Commits != n*target {
		t.Fatalf("commits sync=%d async=%d, want %d each", syncStats.Commits, asyncStats.Commits, n*target)
	}
	if asyncStats.Rounds != 0 {
		t.Fatalf("async job counted %d barrier rounds", asyncStats.Rounds)
	}
}

// TestPoolPerJobObserverDisjoint: concurrent jobs with separate observers
// produce disjoint, correctly labelled snapshots.
func TestPoolPerJobObserverDisjoint(t *testing.T) {
	p, err := NewPool(Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	type run struct {
		job *Job
		o   *obs.Observer
		n   uint64
	}
	runs := []run{{n: 40}, {n: 15}}
	labels := []string{"alpha", "beta"}
	for i := range runs {
		runs[i].o = obs.New()
		subs, _ := newCounterSubs(int(runs[i].n), 3)
		j, err := p.Submit(subs, async(), JobConfig{BatchSize: 8, Observer: runs[i].o, Label: labels[i]})
		if err != nil {
			t.Fatal(err)
		}
		runs[i].job = j
	}
	for i := range runs {
		if _, err := runs[i].job.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	for i := range runs {
		snap := runs[i].o.Snapshot()
		if snap.Job != labels[i] {
			t.Fatalf("snapshot %d labelled %q, want %q", i, snap.Job, labels[i])
		}
		if want := runs[i].n * 3; snap.Counters.Commits != want {
			t.Fatalf("job %q snapshot commits = %d, want %d (telemetry interleaved across jobs?)",
				labels[i], snap.Counters.Commits, want)
		}
		if len(snap.Convergence) < 2 {
			t.Fatalf("job %q convergence series too short: %d", labels[i], len(snap.Convergence))
		}
		if last := snap.Convergence[len(snap.Convergence)-1]; last.Live != 0 {
			t.Fatalf("job %q final sample live = %d", labels[i], last.Live)
		}
	}
}

// TestPoolCloseRejectsSubmit: Close drains active jobs, then Submit fails
// with ErrPoolClosed; Close is idempotent.
func TestPoolCloseRejectsSubmit(t *testing.T) {
	p, err := NewPool(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	subs, _ := newCounterSubs(8, 3)
	j, err := p.Submit(subs, async(), JobConfig{BatchSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	p.Close()
	select {
	case <-j.Done():
	default:
		t.Fatal("Close returned with a job still active")
	}
	if stats, err := j.Wait(); err != nil || stats.Commits != 8*3 {
		t.Fatalf("drained job: stats=%+v err=%v", stats, err)
	}
	if _, err := p.Submit(subs, async(), JobConfig{}); err != ErrPoolClosed {
		t.Fatalf("Submit after Close = %v, want ErrPoolClosed", err)
	}
	p.Close() // idempotent
}

// TestJobCancel: a cancelled job retires early, Wait reports
// ErrJobCancelled, and the pool keeps serving other jobs.
func TestJobCancel(t *testing.T) {
	p, err := NewPool(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	// An endless job: counterSub never reaches its huge target.
	subs, _ := newCounterSubs(4, 1<<40)
	j, err := p.Submit(subs, async(), JobConfig{BatchSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	for j.Stats().Commits == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	j.Cancel()
	if _, err := j.Wait(); err != ErrJobCancelled {
		t.Fatalf("Wait after Cancel = %v, want ErrJobCancelled", err)
	}

	// The pool is still fully usable.
	subs2, _ := newCounterSubs(6, 2)
	j2, err := p.Submit(subs2, async(), JobConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if stats, err := j2.Wait(); err != nil || stats.Commits != 12 {
		t.Fatalf("post-cancel job: stats=%+v err=%v", stats, err)
	}
}

// TestJobCancelSync: a synchronous job stops at its next barrier.
func TestJobCancelSync(t *testing.T) {
	p, err := NewPool(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	subs, _ := newCounterSubs(4, 1<<40)
	j, err := p.Submit(subs, isolation.Options{Level: isolation.Synchronous}, JobConfig{BatchSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	for j.Stats().Rounds == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	j.Cancel()
	if _, err := j.Wait(); err != ErrJobCancelled {
		t.Fatalf("Wait after Cancel = %v, want ErrJobCancelled", err)
	}
}

// TestConfigValidateRejectsStarvingRegions: more regions than workers
// must be rejected up front instead of hanging a region's queue.
func TestConfigValidateRejectsStarvingRegions(t *testing.T) {
	bad := Config{Workers: 2, Topology: numa.Topology{Regions: 4, Workers: 4}}
	if err := bad.Validate(); err == nil {
		t.Fatal("Validate accepted a topology with worker-less regions")
	}
	if _, err := NewPool(bad); err == nil {
		t.Fatal("NewPool accepted a topology with worker-less regions")
	}
}

// TestPoolSubmitManyFromGoroutines: concurrent Submit/Wait from many
// goroutines against one pool.
func TestPoolSubmitManyFromGoroutines(t *testing.T) {
	p, err := NewPool(Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			subs, _ := newCounterSubs(10, 4)
			j, err := p.Submit(subs, async(), JobConfig{BatchSize: 3})
			if err != nil {
				errs <- err
				return
			}
			stats, err := j.Wait()
			if err != nil {
				errs <- err
				return
			}
			if stats.Commits != 40 {
				errs <- errCommits(stats.Commits)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

type errCommits uint64

func (e errCommits) Error() string { return "unexpected commit count" }

// TestEmptyJob: submitting no subs completes immediately.
func TestEmptyJob(t *testing.T) {
	p, err := NewPool(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	j, err := p.Submit(nil, async(), JobConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if stats, err := j.Wait(); err != nil || stats.Executions != 0 {
		t.Fatalf("empty job: stats=%+v err=%v", stats, err)
	}
}

// TestNilPoolSubmit: a job needs a caller-owned pool; a nil one is an
// error, not a throwaway pool.
func TestNilPoolSubmit(t *testing.T) {
	var p *Pool
	if _, err := p.Submit(nil, async(), JobConfig{}); !errors.Is(err, ErrNoPool) {
		t.Fatalf("Submit on a nil pool: err = %v, want ErrNoPool", err)
	}
}

// retireAtSub runs once per synchronous round and retires after target
// rounds. Every round commits, so its iteration count must equal its
// executions so far; ranTwice records a round in which it ran again.
type retireAtSub struct {
	target, execs uint64
	ranTwice      bool
}

func (s *retireAtSub) Begin(ctx *itx.Ctx) {}
func (s *retireAtSub) Execute(ctx *itx.Ctx) {
	if ctx.Iteration() != s.execs {
		s.ranTwice = true
	}
	s.execs++
}
func (s *retireAtSub) Validate(ctx *itx.Ctx) itx.Action {
	if s.execs >= s.target {
		return itx.Done
	}
	return itx.Commit
}

// TestSyncBarrierShrinkingRounds stresses the synchronous barrier while its
// size shrinks: one sub per batch, retiring at different rounds without
// ConvergeTogether, so every round pushes fewer batches than the last. A
// barrier that counted one phase's arrival against the next phase's size
// would run the barrier twice and push live batches twice — a sub would
// then execute twice in one round (and race with itself under -race), or
// the job would hang with arrivals that never match the barrier size.
func TestSyncBarrierShrinkingRounds(t *testing.T) {
	const n, maxRounds, trials = 48, 24, 10
	for _, workers := range []int{2, 4} {
		for trial := 0; trial < trials; trial++ {
			rs := make([]*retireAtSub, n)
			subs := make([]itx.Sub, n)
			for i := range subs {
				rs[i] = &retireAtSub{target: uint64(1 + i%maxRounds)}
				subs[i] = rs[i]
			}
			done := make(chan Stats, 1)
			go func() {
				done <- runJob(t, Config{Workers: workers},
					isolation.Options{Level: isolation.Synchronous}, JobConfig{BatchSize: 1}, subs)
			}()
			var stats Stats
			select {
			case stats = <-done:
			case <-time.After(30 * time.Second):
				t.Fatalf("workers=%d trial %d: synchronous job hung", workers, trial)
			}
			var want uint64
			for i, r := range rs {
				if r.ranTwice || r.execs != r.target {
					t.Fatalf("workers=%d trial %d: sub %d executed %d times in %d rounds (ran twice in a round: %v)",
						workers, trial, i, r.execs, r.target, r.ranTwice)
				}
				want += r.target
			}
			if stats.Executions != want || stats.Commits != want {
				t.Fatalf("workers=%d trial %d: Executions %d, Commits %d, want %d each",
					workers, trial, stats.Executions, stats.Commits, want)
			}
			if stats.Executions != stats.Commits+stats.Rollbacks {
				t.Fatalf("workers=%d trial %d: Executions %d != Commits %d + Rollbacks %d",
					workers, trial, stats.Executions, stats.Commits, stats.Rollbacks)
			}
			if stats.Rounds != maxRounds {
				t.Fatalf("workers=%d trial %d: Rounds = %d, want %d", workers, trial, stats.Rounds, maxRounds)
			}
		}
	}
}

// TestSubmitAllocatesPerJob: Submit carves a job's scheds, contexts and
// batches from per-job slabs, so arming a 4 096-sub job costs a bounded
// number of allocations rather than a few per sub. Jobs are held, so no
// worker allocates while Submit is measured.
func TestSubmitAllocatesPerJob(t *testing.T) {
	p, err := NewPool(Config{Workers: 2, Topology: numa.NewTopology(2, 2)})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	subs, _ := newCounterSubs(4096, 1)
	jobs := make([]*Job, 0, 8)
	allocs := testing.AllocsPerRun(3, func() {
		j, err := p.Submit(subs, async(), JobConfig{BatchSize: 256, Hold: true})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	})
	for _, j := range jobs {
		j.Release()
		if st, err := j.Wait(); err != nil || st.Commits != 4096 {
			t.Fatalf("held job: %d commits, err %v", st.Commits, err)
		}
	}
	if allocs > 64 {
		t.Fatalf("Submit of a 4096-sub job: %v allocations, want <= 64", allocs)
	}
}
