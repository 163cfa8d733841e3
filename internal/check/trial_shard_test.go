package check

import (
	"testing"
	"time"

	"db4ml/internal/chaos"
	"db4ml/internal/exec"
	"db4ml/internal/isolation"
	"db4ml/internal/itx"
	"db4ml/internal/partition"
	"db4ml/internal/shard"
	"db4ml/internal/storage"
	"db4ml/internal/table"
)

// TestShardInvariantSweep replays 36 seeded chaos schedules — 6 seeds ×
// all three isolation levels × two cluster sizes — through real
// distributed uber-transactions (one coordinator run per trial, every
// shard with its own independently seeded fault injector) and checks every
// recorded history against the per-shard contracts, 2PC atomicity,
// cross-shard staleness, and per-shard visibility. Every third seed
// additionally cancels ONE shard's job mid-run, exercising the
// coordinator's all-or-nothing abort. Any violation reports its seed, so
// the exact per-shard fault schedules replay with Run alone.
func TestShardInvariantSweep(t *testing.T) {
	trials := 0
	for _, level := range isolation.Levels() {
		for _, shards := range []int{2, 3} {
			for seed := int64(1); seed <= 6; seed++ {
				cfg := Trial{
					Seed:    seed,
					Level:   LevelOptions(level),
					Shards:  shards,
					Workers: 2,
					Subs:    8,
					Target:  25,
					Chaos:   chaos.DefaultConfig(),
				}
				if seed%3 == 0 {
					cfg.Chaos.CancelAfter = 40
				}
				res, err := Run(cfg)
				if err != nil {
					t.Fatalf("trial level=%s seed=%d shards=%d: %v", level, seed, shards, err)
				}
				trials++
				for _, v := range res.Report.Violations {
					t.Errorf("trial level=%s seed=%d shards=%d: %s", level, seed, shards, v)
				}
				if res.Events == 0 {
					t.Fatalf("trial level=%s seed=%d shards=%d recorded no history", level, seed, shards)
				}
				if res.Report.VisibilityChecked == 0 {
					t.Fatalf("trial level=%s seed=%d shards=%d checked no probes", level, seed, shards)
				}
				if res.Report.AtomicityChecked < shards {
					t.Fatalf("trial level=%s seed=%d shards=%d examined %d uber outcomes, want >= %d",
						level, seed, shards, res.Report.AtomicityChecked, shards)
				}
				if !res.Cancelled {
					// A completed trial must have produced real evidence for
					// its level's contracts, not vacuously passed.
					switch level {
					case isolation.BoundedStaleness:
						if res.Report.StalenessChecked == 0 {
							t.Fatalf("bounded trial seed=%d shards=%d validated no reads", seed, shards)
						}
						if res.Report.CrossShardChecked == 0 {
							t.Fatalf("bounded trial seed=%d shards=%d validated no cross-shard reads", seed, shards)
						}
					case isolation.Synchronous:
						if res.Report.BarrierChecked == 0 {
							t.Fatalf("sync trial seed=%d shards=%d checked no barrier windows", seed, shards)
						}
					}
				}
			}
		}
	}
	if trials < 36 {
		t.Fatalf("swept %d distributed schedules, want at least 36", trials)
	}
}

// TestShardFaultFreeControl pins down the fault-free distributed baseline
// on clusters of 1, 2, and 4 shards: no faults fired, no cancellation, a
// clean report. The 1-shard cluster is the degenerate case: Run takes it to
// a single db4ml.Open kernel, which must pass the same control.
func TestShardFaultFreeControl(t *testing.T) {
	for _, level := range isolation.Levels() {
		for _, shards := range []int{1, 2, 4} {
			res, err := Run(Trial{
				Seed:    1,
				Level:   LevelOptions(level),
				Shards:  shards,
				Workers: 2,
				Subs:    8,
				Target:  15,
			})
			if err != nil {
				t.Fatalf("%s control run shards=%d: %v", level, shards, err)
			}
			if res.Cancelled {
				t.Fatalf("%s control run shards=%d was cancelled without faults", level, shards)
			}
			if res.Faults != 0 {
				t.Fatalf("%s control run shards=%d fired %d faults from a zero config", level, shards, res.Faults)
			}
			if !res.Report.Ok() {
				t.Fatalf("%s control run shards=%d violations: %v", level, shards, res.Report.Violations)
			}
		}
	}
}

// TestCheckerCatchesSplitBrainCommit plants the 2PC failure the coordinator
// exists to prevent: two shards run their slices of one logical
// uber-transaction, then a deliberately broken "coordinator" commits shard
// 0's uber locally while aborting shard 1's — a real split-brain publish,
// with shard 0's rows visible and shard 1's rolled back. The atomicity
// checker must convict; a checker that stays green here could never be
// trusted on the real sweep.
func TestCheckerCatchesSplitBrainCommit(t *testing.T) {
	cluster, err := shard.NewCluster(2, exec.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	router := shard.NewRouter(partition.RoundRobin, 2, 4)
	st := shard.NewTable("split_ring", table.MustSchema(ringCols...), router)
	rows := make([]storage.Payload, 4)
	for i := range rows {
		rows[i] = storage.Payload{0, 0}
	}
	if _, err := st.Load(cluster, rows); err != nil {
		t.Fatal(err)
	}

	hist := NewHistory()
	const base = "split"
	opts := LevelOptions(isolation.Asynchronous)
	// Begin and attach every shard's uber before any job runs (the
	// coordinator's own ordering), so cross-shard neighbor reads find the
	// sibling shard's iterative records in place.
	ubers := make([]*itx.Uber, 2)
	for s := 0; s < 2; s++ {
		u, err := itx.BeginUber(cluster.Kernel(s).Mgr(), opts)
		if err != nil {
			t.Fatalf("shard %d begin: %v", s, err)
		}
		if err := u.Attach(st.Local(s), nil, u.DefaultVersions()); err != nil {
			t.Fatalf("shard %d attach: %v", s, err)
		}
		ubers[s] = u
	}
	for s := 0; s < 2; s++ {
		u := ubers[s]
		var subs []itx.Sub
		var subMap []int
		for g := 0; g < 4; g++ {
			if st.ShardOf(table.RowID(g)) != s {
				continue
			}
			subs = append(subs, &counterSub{
				tbl: st.View(), row: table.RowID(g), nbr: table.RowID((g + 1) % 4),
				target: 5, level: opts.Level,
			})
			subMap = append(subMap, g)
		}
		rec := hist.ShardJob(ShardLabel(base, s), s, subMap)
		j, err := cluster.Kernel(s).Pool().Submit(subs, opts, exec.JobConfig{
			BatchSize: 2, Label: ShardLabel(base, s), Recorder: rec,
		})
		if err != nil {
			t.Fatalf("shard %d submit: %v", s, err)
		}
		if _, err := j.Wait(); err != nil {
			t.Fatalf("shard %d job: %v", s, err)
		}
		j.Quiesce(time.Second)
		// The planted bug: no vote collection — shard 0 commits
		// unilaterally, shard 1 aborts.
		if s == 0 {
			ts, err := u.Commit()
			if err != nil {
				t.Fatalf("shard 0 commit: %v", err)
			}
			rec.RecordUberCommit(ts)
		} else {
			if err := u.Abort(); err != nil {
				t.Fatalf("shard 1 abort: %v", err)
			}
			rec.RecordUberAbort()
		}
	}

	rep := CheckUberAtomicity(hist.Events(), base, 2)
	if rep.AtomicityChecked != 2 {
		t.Fatalf("examined %d uber outcomes, want 2", rep.AtomicityChecked)
	}
	for _, v := range rep.Violations {
		if v.Contract == "2pc-atomicity" {
			return // convicted: the checker caught the split-brain commit
		}
	}
	t.Fatalf("checker missed the one-shard-commits/one-shard-aborts split (violations: %v)", rep.Violations)
}

// TestCheckerCatchesBrokenCrossShardStaleness is the distributed analogue
// of TestCheckerCatchesBrokenStalenessBound: chaos.BreakStaleness makes
// every shard's engine skip its commit-time staleness check under S=0, so
// stale neighbor reads commit anyway. On a 2-shard round-robin ring every
// neighbor read crosses the shard boundary, so the cross-shard checker —
// not just the per-shard one — must convict at least one committed read.
func TestCheckerCatchesBrokenCrossShardStaleness(t *testing.T) {
	broken := chaos.Config{
		StallProb:      0.5, // widen the read→validate windows
		PreemptProb:    0.2,
		BreakStaleness: true,
	}
	for seed := int64(1); seed <= 5; seed++ {
		res, err := Run(Trial{
			Seed:    seed,
			Level:   isolation.Options{Level: isolation.BoundedStaleness, Staleness: 0},
			Shards:  2,
			Workers: 4,
			Subs:    8,
			Target:  50,
			Chaos:   broken,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Report.CrossShardChecked == 0 {
			t.Fatalf("seed %d validated no cross-shard reads", seed)
		}
		for _, v := range res.Report.Violations {
			if v.Contract == "cross-shard-staleness" {
				return // convicted: the checker caught the broken bound across shards
			}
		}
		t.Logf("seed %d produced no cross-shard staleness violation (checked %d); retrying",
			seed, res.Report.CrossShardChecked)
	}
	t.Fatal("checker never caught the broken staleness bound on cross-shard reads across 5 seeds")
}
