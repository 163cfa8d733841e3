package table

import (
	"fmt"

	"db4ml/internal/storage"
)

// This file implements the uber-transaction side of iterative records
// (Section 3.2): installing an invisible iterative version on every row the
// ML algorithm will update, exposing the IterativeRecord handles that
// sub-transactions cache in their tx_state, and publishing or discarding
// the results when the uber-transaction commits or aborts.

// StartIterative installs an iterative record on every row in rows (all
// rows when rows is nil), seeded with the version visible at snapshot ts
// and holding nVersions intermediate snapshots. The new versions have
// Begin = InfTS, so no other transaction can see them until
// CommitIterative. It fails if any row already carries an in-flight
// iterative version: DB4ML runs one uber-transaction at a time per row.
func (t *Table) StartIterative(ts storage.Timestamp, nVersions int, rows []RowID) error {
	// Two passes: first validate every target chain and collect the
	// snapshot seeds, then slab-allocate all iterative versions at once
	// (the paper's contiguous tuple format, Section 7.2.1) and install
	// them.
	type target struct {
		row  RowID
		c    *storage.VersionChain
		head *storage.Record
	}
	var targets []target
	var seeds []storage.Payload
	zero := t.schema.NewPayload()
	err := t.forRows(rows, func(row RowID, c *storage.VersionChain) error {
		head := c.Head()
		if head != nil && head.Iter() != nil && head.Begin() == storage.InfTS {
			return fmt.Errorf("table %s row %d: iterative version already in flight", t.name, row)
		}
		seed := zero
		if base := c.VisibleAt(ts); base != nil {
			if base.Deleted {
				if rows == nil {
					// Whole-table attach skips deleted rows: the ML
					// algorithm must not resurrect them.
					return nil
				}
				return fmt.Errorf("table %s row %d: row deleted at snapshot %d", t.name, row, ts)
			}
			seed = base.Payload
		} else if rows == nil {
			// Row did not exist at the snapshot; skip it likewise.
			return nil
		}
		targets = append(targets, target{row: row, c: c, head: head})
		seeds = append(seeds, seed)
		return nil
	})
	if err != nil {
		return err
	}
	recs := storage.NewIterativeVersionBatch(len(targets), t.schema.Width(), nVersions,
		func(i int) storage.Payload { return seeds[i] })
	for i, tg := range targets {
		if !tg.c.Install(tg.head, recs[i]) {
			// Unwind the prefix so the table stays clean.
			for j := i - 1; j >= 0; j-- {
				targets[j].c.Unwind(recs[j])
			}
			return fmt.Errorf("table %s row %d: concurrent write during StartIterative", t.name, tg.row)
		}
	}
	return nil
}

// IterRecord returns the in-flight (or published) iterative record at the
// head of row's version chain, or nil if the head is not iterative.
// Sub-transactions call this once in begin() and cache the pointer.
func (t *Table) IterRecord(row RowID) *storage.IterativeRecord {
	c := t.Chain(row)
	if c == nil {
		return nil
	}
	head := c.Head()
	if head == nil {
		return nil
	}
	return head.Iter()
}

// CommitIterative materializes each row's latest intermediate snapshot as
// the row's new globally visible version at commitTS. Called by the
// uber-transaction after all sub-transactions converged. With rows == nil
// it publishes every in-flight iterative head and skips rows without one
// (rows StartIterative skipped because they were deleted or absent at the
// snapshot).
func (t *Table) CommitIterative(commitTS storage.Timestamp, rows []RowID) error {
	published := 0
	err := t.forRows(rows, func(row RowID, c *storage.VersionChain) error {
		head := c.Head()
		if head == nil || head.Iter() == nil {
			if rows == nil {
				return nil
			}
			return fmt.Errorf("table %s row %d: no iterative version to commit", t.name, row)
		}
		if head.Begin() != storage.InfTS {
			if rows == nil {
				return nil // already published (or from an older uber-txn)
			}
			return fmt.Errorf("table %s row %d: iterative version not in flight", t.name, row)
		}
		head.Iter().ReadRecent(head.Payload)
		head.Publish(commitTS)
		published++
		return nil
	})
	if err != nil {
		return err
	}
	if rows == nil && published == 0 && t.NumRows() > 0 {
		return fmt.Errorf("table %s: no in-flight iterative versions to commit", t.name)
	}
	if published > 0 {
		// CommitIterative runs inside the manager's publish critical section
		// (PublishAt/CommitAt), so this bump lands before the stable
		// watermark advances — the ordering the fuzzy checkpointer's
		// change-detection relies on.
		t.muts.Add(1)
	}
	return nil
}

// AbortIterative discards the in-flight iterative versions, restoring each
// row's chain to its previous head. Only the owning uber-transaction may
// call it.
func (t *Table) AbortIterative(rows []RowID) error {
	aborted := 0
	err := t.forRows(rows, func(row RowID, c *storage.VersionChain) error {
		head := c.Head()
		if head == nil || head.Iter() == nil || head.Begin() != storage.InfTS {
			if rows == nil {
				return nil // skipped at StartIterative
			}
			return fmt.Errorf("table %s row %d: no in-flight iterative version to abort", t.name, row)
		}
		if !c.Unwind(head) {
			return fmt.Errorf("table %s row %d: concurrent write during AbortIterative", t.name, row)
		}
		aborted++
		return nil
	})
	if err != nil {
		return err
	}
	if rows == nil && aborted == 0 && t.NumRows() > 0 {
		return fmt.Errorf("table %s: no in-flight iterative versions to abort", t.name)
	}
	return nil
}

func (t *Table) forRows(rows []RowID, fn func(RowID, *storage.VersionChain) error) error {
	if rows == nil {
		for i, c := range t.Slots() {
			if err := fn(RowID(i), c); err != nil {
				return err
			}
		}
		return nil
	}
	for _, row := range rows {
		c := t.Chain(row)
		if c == nil {
			return fmt.Errorf("table %s: row %d does not exist", t.name, row)
		}
		if err := fn(row, c); err != nil {
			return err
		}
	}
	return nil
}
