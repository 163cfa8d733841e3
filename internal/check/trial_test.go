package check

import (
	"testing"
	"time"

	"db4ml/internal/chaos"
	"db4ml/internal/isolation"
)

// TestInvariantSweep replays 36 seeded chaos schedules — 6 seeds × all
// three isolation levels × two worker counts — through real engine runs
// and checks every recorded history against the paper's isolation
// contracts. Every third seed additionally injects a mid-run job
// cancellation, exercising the abort path of the visibility contract. Any
// violation is reported with its seed, so the exact fault schedule can be
// replayed with Run alone.
func TestInvariantSweep(t *testing.T) {
	trials := 0
	for _, level := range isolation.Levels() {
		for _, workers := range []int{2, 4} {
			for seed := int64(1); seed <= 6; seed++ {
				cfg := Trial{
					Seed:    seed,
					Level:   LevelOptions(level),
					Workers: workers,
					Subs:    8,
					Target:  30,
					Chaos:   chaos.DefaultConfig(),
				}
				if seed%3 == 0 {
					cfg.Chaos.CancelAfter = 40
				}
				res, err := Run(cfg)
				if err != nil {
					t.Fatalf("trial level=%s seed=%d workers=%d: %v", level, seed, workers, err)
				}
				trials++
				for _, v := range res.Report.Violations {
					t.Errorf("trial level=%s seed=%d workers=%d: %s", level, seed, workers, v)
				}
				if res.Events == 0 {
					t.Fatalf("trial level=%s seed=%d workers=%d recorded no history", level, seed, workers)
				}
				if res.Report.VisibilityChecked == 0 {
					t.Fatalf("trial level=%s seed=%d workers=%d checked no probes", level, seed, workers)
				}
				if !res.Cancelled {
					// A completed trial must have produced real evidence for
					// its level's contract, not vacuously passed.
					switch level {
					case isolation.BoundedStaleness:
						if res.Report.StalenessChecked == 0 {
							t.Fatalf("bounded trial seed=%d workers=%d validated no reads", seed, workers)
						}
					case isolation.Synchronous:
						if res.Report.BarrierChecked == 0 {
							t.Fatalf("sync trial seed=%d workers=%d checked no barrier windows", seed, workers)
						}
					}
				}
			}
		}
	}
	if trials < 32 {
		t.Fatalf("swept %d schedules, want at least 32", trials)
	}
}

// TestFaultFreeControlRun pins down that a zero chaos config really injects
// nothing: the trial must complete uncancelled with a clean report and zero
// fired faults.
func TestFaultFreeControlRun(t *testing.T) {
	for _, level := range isolation.Levels() {
		res, err := Run(Trial{
			Seed:    1,
			Level:   LevelOptions(level),
			Workers: 2,
			Subs:    4,
			Target:  20,
		})
		if err != nil {
			t.Fatalf("%s control run: %v", level, err)
		}
		if res.Cancelled {
			t.Fatalf("%s control run was cancelled without faults", level)
		}
		if res.Faults != 0 {
			t.Fatalf("%s control run fired %d faults from a zero config", level, res.Faults)
		}
		if !res.Report.Ok() {
			t.Fatalf("%s control run violations: %v", level, res.Report.Violations)
		}
	}
}

// TestCheckerCatchesBrokenStalenessBound is the harness's own end-to-end
// test: chaos.Config.BreakStaleness makes the engine skip its commit-time
// staleness check (a deliberately broken bound, injected — never compiled
// into production paths), so iterations whose reads exceed S=0 commit
// anyway. The recorded validation evidence keeps the true counters, and the
// checker must convict at least one of those commits. A checker that stays
// green here could never be trusted on the real sweep.
func TestCheckerCatchesBrokenStalenessBound(t *testing.T) {
	broken := chaos.Config{
		StallProb:      0.5, // widen the read→validate windows
		PreemptProb:    0.2,
		BreakStaleness: true,
	}
	for seed := int64(1); seed <= 5; seed++ {
		res, err := Run(Trial{
			Seed:    seed,
			Level:   isolation.Options{Level: isolation.BoundedStaleness, Staleness: 0},
			Workers: 4,
			Subs:    8,
			Target:  50,
			Chaos:   broken,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Report.StalenessChecked == 0 {
			t.Fatalf("seed %d validated no reads", seed)
		}
		for _, v := range res.Report.Violations {
			if v.Contract == "bounded-staleness" {
				return // convicted: the checker caught the broken bound
			}
		}
		t.Logf("seed %d produced no staleness violation (checked %d validations); retrying",
			seed, res.Report.StalenessChecked)
	}
	t.Fatal("checker never caught the deliberately broken staleness bound across 5 seeds")
}

// TestInvariantSweepWithGC re-runs seeded chaos schedules with the
// background version reclaimer spinning at an aggressive interval: GC
// passes interleave with live iterations, OLTP probes, forced rollbacks,
// and job cancellations. Pass criterion: the report and the workload
// oracle are exactly as strict as in the GC-off sweep — reclamation must
// never change what any reader observes.
func TestInvariantSweepWithGC(t *testing.T) {
	for _, level := range isolation.Levels() {
		for seed := int64(1); seed <= 4; seed++ {
			cfg := Trial{
				Seed:    seed,
				Level:   LevelOptions(level),
				Workers: 4,
				Subs:    8,
				Target:  30,
				Chaos:   chaos.DefaultConfig(),
				GC:      100 * time.Microsecond,
			}
			if seed%3 == 0 {
				cfg.Chaos.CancelAfter = 40
			}
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("GC trial level=%s seed=%d: %v", level, seed, err)
			}
			for _, v := range res.Report.Violations {
				t.Errorf("GC trial level=%s seed=%d: %s", level, seed, v)
			}
			if res.Report.VisibilityChecked == 0 {
				t.Fatalf("GC trial level=%s seed=%d checked no probes", level, seed)
			}
		}
	}
}
