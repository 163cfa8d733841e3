package itx_test

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"db4ml/internal/exec"
	"db4ml/internal/isolation"
	"db4ml/internal/itx"
)

// runJob runs subs as one job on a fresh 4-worker pool: NewPool, Submit,
// Wait, Close.
func runJob(jc exec.JobConfig, opts isolation.Options, subs []itx.Sub) (exec.Stats, error) {
	p, err := exec.NewPool(exec.Config{Workers: 4})
	if err != nil {
		return exec.Stats{}, err
	}
	defer p.Close()
	j, err := p.Submit(subs, opts, jc)
	if err != nil {
		return exec.Stats{}, err
	}
	return j.Wait()
}

// scriptedSub replays a precomputed verdict plan: attempt k returns
// plan[k], and the plan always ends with Done. Because the executor must
// repeat rolled-back attempts and advance committed ones in order, the
// exact number of Execute calls, commits, and rollbacks of the whole job is
// known in advance — the accounting properties the tests below assert.
type scriptedSub struct {
	plan  []itx.Action
	calls atomic.Int64 // Execute calls so far
	over  *atomic.Bool // set when executed past its Done
}

func (s *scriptedSub) Begin(*itx.Ctx) {}

func (s *scriptedSub) Execute(*itx.Ctx) {
	if int(s.calls.Add(1)) > len(s.plan) {
		s.over.Store(true)
	}
}

func (s *scriptedSub) Validate(*itx.Ctx) itx.Action {
	n := int(s.calls.Load())
	if n > len(s.plan) {
		return itx.Done // already over; flagged via s.over
	}
	return s.plan[n-1]
}

// randomPlan builds a verdict sequence of iters committed iterations, each
// preceded by 0–3 rollbacks, with the last commit replaced by Done.
func randomPlan(rng *rand.Rand) []itx.Action {
	iters := 1 + rng.Intn(6)
	var plan []itx.Action
	for i := 0; i < iters; i++ {
		for r := rng.Intn(4); r > 0; r-- {
			plan = append(plan, itx.Rollback)
		}
		plan = append(plan, itx.Commit)
	}
	plan[len(plan)-1] = itx.Done
	return plan
}

// TestScriptedAccountingProperty: for randomized rollback/commit plans,
// batch sizes, and isolation levels, the job's final stats must equal the
// plan totals exactly — every attempt executed once (no double-count),
// every Done honored (no lost convergence, no execution past it), every
// rollback repeated exactly once.
func TestScriptedAccountingProperty(t *testing.T) {
	const nSubs = 17 // prime: every batch size yields a ragged final batch
	for _, level := range isolation.Levels() {
		for _, batch := range []int{1, 3, 7, 64} {
			for seed := int64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("%s/batch%d/seed%d", level, batch, seed), func(t *testing.T) {
					rng := rand.New(rand.NewSource(seed))
					var over atomic.Bool
					subs := make([]itx.Sub, nSubs)
					var wantExec, wantCommits, wantRollbacks uint64
					for i := range subs {
						plan := randomPlan(rng)
						subs[i] = &scriptedSub{plan: plan, over: &over}
						wantExec += uint64(len(plan))
						for _, a := range plan {
							if a == itx.Rollback {
								wantRollbacks++
							} else {
								wantCommits++ // Commit and the final Done both install
							}
						}
					}
					stats, err := runJob(
						exec.JobConfig{BatchSize: batch},
						isolation.Options{Level: level, Staleness: 2},
						subs)
					if err != nil {
						t.Fatal(err)
					}
					if over.Load() {
						t.Fatal("a sub-transaction was executed after returning Done")
					}
					if stats.Executions != wantExec {
						t.Errorf("executions = %d, want %d", stats.Executions, wantExec)
					}
					if stats.Commits != wantCommits {
						t.Errorf("commits = %d, want %d", stats.Commits, wantCommits)
					}
					if stats.Rollbacks != wantRollbacks {
						t.Errorf("rollbacks = %d, want %d", stats.Rollbacks, wantRollbacks)
					}
					if stats.ForcedStops != 0 {
						t.Errorf("forced stops = %d on converging plans", stats.ForcedStops)
					}
					for i, s := range subs {
						ss := s.(*scriptedSub)
						if got, want := int(ss.calls.Load()), len(ss.plan); got != want {
							t.Errorf("sub %d executed %d attempts, want %d", i, got, want)
						}
					}
				})
			}
		}
	}
}

// fixedVerdictSub returns the same verdict forever — the workload shape the
// executor's caps exist for.
type fixedVerdictSub struct {
	verdict itx.Action
	calls   atomic.Int64
}

func (s *fixedVerdictSub) Begin(*itx.Ctx)               {}
func (s *fixedVerdictSub) Execute(*itx.Ctx)             { s.calls.Add(1) }
func (s *fixedVerdictSub) Validate(*itx.Ctx) itx.Action { return s.verdict }

// TestAttemptCapAccounting: perpetually rolling-back sub-transactions are
// retired by the attempt cap after exactly MaxAttempts executions each —
// all charged as rollbacks, none as commits.
func TestAttemptCapAccounting(t *testing.T) {
	const nSubs, cap = 9, 7
	for _, level := range []isolation.Level{isolation.Asynchronous, isolation.BoundedStaleness} {
		subs := make([]itx.Sub, nSubs)
		for i := range subs {
			subs[i] = &fixedVerdictSub{verdict: itx.Rollback}
		}
		stats, err := runJob(
			exec.JobConfig{BatchSize: 2, MaxAttempts: cap},
			isolation.Options{Level: level, Staleness: 2},
			subs)
		if err != nil {
			t.Fatal(err)
		}
		if stats.ForcedStops != nSubs {
			t.Errorf("%s: forced stops = %d, want %d", level, stats.ForcedStops, nSubs)
		}
		if stats.Executions != nSubs*cap || stats.Rollbacks != nSubs*cap {
			t.Errorf("%s: executions/rollbacks = %d/%d, want %d each",
				level, stats.Executions, stats.Rollbacks, nSubs*cap)
		}
		if stats.Commits != 0 {
			t.Errorf("%s: %d commits from all-rollback plans", level, stats.Commits)
		}
		for i, s := range subs {
			if got := s.(*fixedVerdictSub).calls.Load(); got != cap {
				t.Errorf("%s: sub %d executed %d attempts, want %d", level, i, got, cap)
			}
		}
	}
}

// TestIterationCapAccounting: never-converging (always-Commit)
// sub-transactions are retired by the committed-iteration cap after exactly
// MaxIterations commits each, and a 50% rollback mix doubles the attempts
// without disturbing the committed count.
func TestIterationCapAccounting(t *testing.T) {
	const nSubs, cap = 9, 5
	subs := make([]itx.Sub, nSubs)
	for i := range subs {
		subs[i] = &fixedVerdictSub{verdict: itx.Commit}
	}
	stats, err := runJob(
		exec.JobConfig{BatchSize: 2, MaxIterations: cap},
		isolation.Options{Level: isolation.Asynchronous},
		subs)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ForcedStops != nSubs || stats.Commits != nSubs*cap || stats.Rollbacks != 0 {
		t.Errorf("always-commit: stops/commits/rollbacks = %d/%d/%d, want %d/%d/0",
			stats.ForcedStops, stats.Commits, stats.Rollbacks, nSubs, nSubs*cap)
	}

	// Alternating rollback/commit: the iteration cap ignores rollbacks, so
	// each sub finalizes 2×cap attempts, half committed, half rolled back.
	alt := make([]itx.Sub, nSubs)
	var over atomic.Bool
	for i := range alt {
		plan := make([]itx.Action, 0, 4*cap)
		for k := 0; k < 2*cap; k++ {
			plan = append(plan, itx.Rollback, itx.Commit)
		}
		alt[i] = &scriptedSub{plan: plan, over: &over}
	}
	stats, err = runJob(
		exec.JobConfig{BatchSize: 2, MaxIterations: cap},
		isolation.Options{Level: isolation.Asynchronous},
		alt)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ForcedStops != nSubs || stats.Commits != nSubs*cap || stats.Rollbacks != nSubs*cap {
		t.Errorf("alternating: stops/commits/rollbacks = %d/%d/%d, want %d/%d/%d",
			stats.ForcedStops, stats.Commits, stats.Rollbacks, nSubs, nSubs*cap, nSubs*cap)
	}
}
