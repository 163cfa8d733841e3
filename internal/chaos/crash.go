package chaos

import (
	"errors"
	"sync/atomic"
)

// ErrCrashed is the error every durability path reports once a simulated
// crash fires: the "process" is considered dead from that instant, so the
// commit in flight is never acknowledged and nothing further reaches disk.
var ErrCrashed = errors.New("chaos: simulated crash")

// CrashPoint identifies where in the commit/checkpoint pipeline a simulated
// crash (kill-point) fires. Unlike Point faults, a crash is terminal: the
// kernel's durable state is frozen exactly as it was at the kill instant and
// the in-memory state is discarded, which is what the recovery harness
// (check.Run's crash trials) then recovers from.
type CrashPoint uint8

const (
	// CrashNone: no kill-point armed; the trial runs and shuts down cleanly.
	CrashNone CrashPoint = iota
	// CrashBeforePrepare: die before the commit protocol starts — no kernel
	// prepared, nothing published, nothing logged.
	CrashBeforePrepare
	// CrashAfterPrepare: die with every kernel prepared (commit locks held)
	// but no commit published. Recovery must observe the pre-commit state.
	CrashAfterPrepare
	// CrashBetweenShardCommits: die inside the 2PC window — some kernels
	// have published the coordinated timestamp, others are still only
	// prepared. The WAL commit record was never written, so recovery must
	// roll the whole uber-commit back to absent. Never fires on one kernel.
	CrashBetweenShardCommits
	// CrashAfterPublish: die with every kernel published in memory but
	// nothing logged — before the WAL append. Recovery must observe the
	// pre-commit state, and the commit is never acknowledged.
	CrashAfterPublish
	// CrashMidWALAppend: die halfway through writing the WAL frame — a torn
	// tail the recovery reader must truncate, leaving the commit absent.
	CrashMidWALAppend
	// CrashAfterWALAppend: die after the WAL frame is durable but before the
	// commit is acknowledged to the caller. Recovery may legitimately
	// resurface the commit (durable-but-unacknowledged); the atomicity
	// contract only requires all-or-nothing.
	CrashAfterWALAppend
	// CrashMidCheckpoint: die halfway through writing a checkpoint file.
	// Recovery must skip the torn checkpoint and fall back to the previous
	// valid one plus a longer WAL tail.
	CrashMidCheckpoint

	numCrashPoints
)

func (p CrashPoint) String() string {
	switch p {
	case CrashNone:
		return "none"
	case CrashBeforePrepare:
		return "before-prepare"
	case CrashAfterPrepare:
		return "after-prepare"
	case CrashBetweenShardCommits:
		return "between-shard-commits"
	case CrashAfterPublish:
		return "after-publish"
	case CrashMidWALAppend:
		return "mid-wal-append"
	case CrashAfterWALAppend:
		return "after-wal-append"
	case CrashMidCheckpoint:
		return "mid-checkpoint"
	default:
		return "crash(?)"
	}
}

// CrashPoints lists every real kill-point (CrashNone excluded), for sweep
// matrices.
func CrashPoints() []CrashPoint {
	out := make([]CrashPoint, 0, numCrashPoints-1)
	for p := CrashBeforePrepare; p < numCrashPoints; p++ {
		out = append(out, p)
	}
	return out
}

// Killer arms exactly one kill-point and fires it exactly once. Call sites
// ask At(point); the first call matching the armed point returns true and
// every later call returns false, so a trial dies at one well-defined
// instant. A nil Killer never fires, which is the production configuration —
// the checks cost one nil test per site.
type Killer struct {
	point CrashPoint
	fired atomic.Bool
}

// NewKiller arms a killer at the given point. NewKiller(CrashNone) returns a
// killer that never fires.
func NewKiller(p CrashPoint) *Killer { return &Killer{point: p} }

// At reports whether the armed kill-point is p, firing at most once. Nil-safe.
func (k *Killer) At(p CrashPoint) bool {
	if k == nil || k.point == CrashNone || k.point != p {
		return false
	}
	return k.fired.CompareAndSwap(false, true)
}
