package itx

import (
	"errors"
	"fmt"

	"db4ml/internal/isolation"
	"db4ml/internal/storage"
	"db4ml/internal/table"
	"db4ml/internal/txn"
)

// ErrUberDone is returned when a committed or aborted uber-transaction is
// used again.
var ErrUberDone = errors.New("itx: uber-transaction already finished")

// Uber is the top-level transaction of a running ML algorithm (Section
// 2.1). It fixes the snapshot all sub-transactions start from, owns the
// iterative records installed on the attached tables, and makes the final
// result visible to the rest of the DBMS atomically when it commits.
type Uber struct {
	mgr      *txn.Manager
	opts     isolation.Options
	snapshot storage.Timestamp
	attached []Attachment
	done     bool
	pinned   bool
}

// Attachment names one table (and optionally a row subset) an
// uber-transaction updates. Versions overrides the per-record snapshot-slot
// count; 0 uses the isolation level's default (DefaultVersions).
type Attachment struct {
	Table    *table.Table
	Rows     []table.RowID // nil means all rows
	Versions int
}

// BeginUber starts an uber-transaction under the given isolation options.
// Its begin timestamp T_TB is the manager's current stable snapshot, which
// every sub-transaction inherits (Section 4.1). The snapshot is pinned in
// the manager's active-snapshot registry until Commit or Abort, so the
// version garbage collector can never reclaim the versions the
// uber-transaction seeds and restores from.
func BeginUber(mgr *txn.Manager, opts isolation.Options) (*Uber, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	return &Uber{mgr: mgr, opts: opts, snapshot: mgr.PinSnapshot(), pinned: true}, nil
}

// release drops the uber-transaction's snapshot pin exactly once.
func (u *Uber) release() {
	if u.pinned {
		u.pinned = false
		u.mgr.UnpinSnapshot(u.snapshot)
	}
}

// Snapshot returns the uber-transaction's begin timestamp T_TB.
func (u *Uber) Snapshot() storage.Timestamp { return u.snapshot }

// Options returns the isolation options shared by all sub-transactions.
func (u *Uber) Options() isolation.Options { return u.opts }

// DefaultVersions returns the number of intermediate snapshot slots each
// iterative record needs under the uber-transaction's isolation level: one
// for the single-version fast paths, S+2 for general bounded staleness (a
// reader must find some snapshot in [IterCounter-S, IterCounter] even while
// the newest slot is mid-write).
func (u *Uber) DefaultVersions() int {
	if u.opts.Level == isolation.BoundedStaleness && !u.opts.SingleWriterHint {
		return int(u.opts.Staleness) + 2
	}
	return 1
}

// Attach installs iterative records (with nVersions snapshot slots; 0 uses
// DefaultVersions) on the given rows of tbl — all rows when rows is nil —
// seeded from the uber-transaction's snapshot. The records stay invisible
// to every other transaction until Commit.
func (u *Uber) Attach(tbl *table.Table, rows []table.RowID, nVersions int) error {
	if u.done {
		return ErrUberDone
	}
	if nVersions == 0 {
		nVersions = u.DefaultVersions()
	}
	if err := tbl.StartIterative(u.snapshot, nVersions, rows); err != nil {
		return err
	}
	u.attached = append(u.attached, Attachment{Table: tbl, Rows: rows, Versions: nVersions})
	return nil
}

// Commit publishes the latest intermediate snapshot of every attached row
// as a new global version and returns the commit timestamp T_TE. Call it
// only after every sub-transaction converged.
func (u *Uber) Commit() (storage.Timestamp, error) {
	if u.done {
		return 0, ErrUberDone
	}
	var firstErr error
	ts := u.mgr.PublishAt(func(ts storage.Timestamp) {
		for _, a := range u.attached {
			if err := a.Table.CommitIterative(ts, a.Rows); err != nil && firstErr == nil {
				firstErr = fmt.Errorf("itx: commit of table %s: %w", a.Table.Name(), err)
			}
		}
	})
	// Release the snapshot pin even on a partial-commit error: the publish
	// already happened, and a stuck pin would freeze the GC watermark.
	u.release()
	if firstErr != nil {
		return 0, firstErr
	}
	u.done = true
	return ts, nil
}

// Prepare is the uber-transaction's vote in a coordinated two-phase
// commit: it verifies the transaction can still commit and locks its
// manager for publishing (txn.Manager.Prepare). The coordinator then
// draws one commit timestamp from the shared oracle and settles every
// prepared shard with CommitPrepared, or backs out with p.Abort followed
// by u.Abort. A nil return with a nil error never happens.
func (u *Uber) Prepare() (*txn.Prepared, error) {
	if u.done {
		return nil, ErrUberDone
	}
	return u.mgr.Prepare(), nil
}

// CommitPrepared is the commit phase of a coordinated two-phase commit:
// it publishes the latest intermediate snapshot of every attached row at
// the coordinator-chosen timestamp ts under the already-held prepare
// lock. Unlike Commit, the timestamp is imposed, not drawn — every shard
// of one distributed uber-transaction publishes at the same ts, which is
// what makes the distributed commit atomic in timestamp order: a reader
// snapshot either precedes every shard's publish or follows all of them.
func (u *Uber) CommitPrepared(p *txn.Prepared, ts storage.Timestamp) error {
	if u.done {
		p.Abort()
		return ErrUberDone
	}
	var firstErr error
	p.CommitAt(ts, func(ts storage.Timestamp) {
		for _, a := range u.attached {
			if err := a.Table.CommitIterative(ts, a.Rows); err != nil && firstErr == nil {
				firstErr = fmt.Errorf("itx: commit of table %s: %w", a.Table.Name(), err)
			}
		}
	})
	u.release()
	if firstErr != nil {
		return firstErr
	}
	u.done = true
	return nil
}

// Abort discards all in-flight iterative state, restoring every attached
// table to its pre-uber-transaction version chains.
func (u *Uber) Abort() error {
	if u.done {
		return ErrUberDone
	}
	u.release()
	for _, a := range u.attached {
		if err := a.Table.AbortIterative(a.Rows); err != nil {
			return fmt.Errorf("itx: abort of table %s: %w", a.Table.Name(), err)
		}
	}
	u.done = true
	return nil
}
