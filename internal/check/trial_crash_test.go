package check

import (
	"fmt"
	"testing"

	"db4ml"
	"db4ml/internal/chaos"
	"db4ml/internal/isolation"
)

// crashTrial is the crash tests' trial: an asynchronous ring of 8 rows
// counted to 4 by 2 workers per kernel.
func crashTrial(shards int, crash Crash) Trial {
	return Trial{
		Level:   LevelOptions(isolation.Asynchronous),
		Shards:  shards,
		Workers: 2,
		Subs:    8,
		Target:  4,
		Crash:   &crash,
	}
}

// TestKillPointMatrix sweeps every crash point (plus the clean-restart
// control) across 1, 2, and 4 shards and asserts the committed-exactly-or-
// absent contract holds at each — the acceptance matrix of the durability
// layer.
func TestKillPointMatrix(t *testing.T) {
	points := append([]chaos.CrashPoint{chaos.CrashNone}, chaos.CrashPoints()...)
	for _, shards := range []int{1, 2, 4} {
		for _, kp := range points {
			kp, shards := kp, shards
			t.Run(fmt.Sprintf("%s/%dshard", kp, shards), func(t *testing.T) {
				t.Parallel()
				out, err := Run(crashTrial(shards, Crash{
					Kill: kp,
					Dir:  t.TempDir(),
				}))
				if err != nil {
					t.Fatal(err)
				}
				if !out.Report.Ok() {
					t.Fatalf("recovery atomicity violated: %v", out.Report.Violations)
				}
				if out.Report.RecoveryChecked == 0 {
					t.Fatal("vacuous report: no recovery probes examined")
				}

				// CrashBetweenShardCommits never fires with one shard (the 2PC
				// window needs a second CommitPrepared); everything else must.
				wantKilled := kp != chaos.CrashNone &&
					!(kp == chaos.CrashBetweenShardCommits && shards == 1)
				if out.Killed != wantKilled {
					t.Fatalf("Killed = %v, want %v", out.Killed, wantKilled)
				}
				// Points past the WAL append (or never reached) leave the commit
				// acknowledged; points inside the commit path must not ack.
				wantAcked := kp == chaos.CrashNone ||
					kp == chaos.CrashMidCheckpoint ||
					(kp == chaos.CrashBetweenShardCommits && shards == 1)
				if out.Acked != wantAcked {
					t.Fatalf("Acked = %v, want %v", out.Acked, wantAcked)
				}
				if out.Acked && out.AckedTS == 0 {
					t.Fatal("acknowledged run reported no commit timestamp")
				}
				if out.Acked && out.RecoveredStable < out.AckedTS {
					t.Fatalf("recovered stable %d below acknowledged commit %d",
						out.RecoveredStable, out.AckedTS)
				}
			})
		}
	}
}

// TestKillPointsWithMidCheckpoint reruns the commit-path kill-points with a
// checkpoint taken before the workload, so recovery exercises the
// checkpoint-plus-tail path rather than whole-log replay.
func TestKillPointsWithMidCheckpoint(t *testing.T) {
	for _, kp := range []chaos.CrashPoint{
		chaos.CrashAfterPrepare,
		chaos.CrashMidWALAppend,
		chaos.CrashAfterWALAppend,
	} {
		kp := kp
		t.Run(kp.String(), func(t *testing.T) {
			t.Parallel()
			out, err := Run(crashTrial(2, Crash{
				Kill:          kp,
				CheckpointMid: true,
				Dir:           t.TempDir(),
			}))
			if err != nil {
				t.Fatal(err)
			}
			if !out.Killed {
				t.Fatal("kill-point never fired")
			}
			if !out.Report.Ok() {
				t.Fatalf("recovery atomicity violated: %v", out.Report.Violations)
			}
		})
	}
}

// TestPlantedViolationConvicts proves the checker is not vacuous: destroying
// the WAL after an acknowledged run MUST fail the atomicity check. A harness
// that passes this sabotage would be asserting nothing.
func TestPlantedViolationConvicts(t *testing.T) {
	for _, tc := range []struct {
		name   string
		shards int
	}{{"single", 1}, {"sharded", 2}} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			out, err := Run(crashTrial(tc.shards, Crash{
				Kill:          chaos.CrashNone,
				CheckpointMid: true, // keep a checkpoint so the table survives the sabotage
				BreakRecovery: true,
				Dir:           t.TempDir(),
			}))
			if err != nil {
				t.Fatal(err)
			}
			if !out.Acked {
				t.Fatal("control run was not acknowledged")
			}
			if out.Report.Ok() {
				t.Fatal("planted durability bug was not convicted")
			}
		})
	}
}

// TestSyncPolicyTrials runs the clean-restart control under the relaxed
// fsync policies: a clean Close still makes everything durable.
func TestSyncPolicyTrials(t *testing.T) {
	for _, tc := range []struct {
		name   string
		policy db4ml.WALSyncPolicy
	}{{"interval", db4ml.WALSyncInterval}, {"none", db4ml.WALSyncNone}} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			out, err := Run(crashTrial(1, Crash{
				Kill:   chaos.CrashNone,
				Policy: tc.policy,
				Dir:    t.TempDir(),
			}))
			if err != nil {
				t.Fatal(err)
			}
			if !out.Acked || !out.Report.Ok() {
				t.Fatalf("clean trial failed: acked=%v report=%+v", out.Acked, out.Report)
			}
		})
	}
}
