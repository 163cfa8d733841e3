package table

import (
	"testing"

	"db4ml/internal/alloctest"
	"db4ml/internal/storage"
)

func TestStartIterativeSeedsFromSnapshot(t *testing.T) {
	tbl := newNodeTable(t, 3)
	if err := tbl.StartIterative(5, 3, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		ir := tbl.IterRecord(RowID(i))
		if ir == nil {
			t.Fatalf("row %d has no iterative record", i)
		}
		out := make(storage.Payload, 2)
		if iter := ir.ReadRecent(out); iter != 0 {
			t.Fatalf("fresh iterative record at iteration %d", iter)
		}
		if out.Float64(1) != float64(i)/10 {
			t.Fatalf("row %d seeded with %v", i, out)
		}
	}
}

func TestIterativeInvisibleUntilCommit(t *testing.T) {
	tbl := newNodeTable(t, 2)
	if err := tbl.StartIterative(5, 1, nil); err != nil {
		t.Fatal(err)
	}
	// Sub-transactions install intermediate snapshots.
	for i := 0; i < 2; i++ {
		ir := tbl.IterRecord(RowID(i))
		p := tbl.Schema().NewPayload()
		p.SetInt64(0, int64(i))
		p.SetFloat64(1, 0.5)
		ir.Install(p)
	}
	// Readers at any timestamp still see the old values.
	p, ok := tbl.Read(0, 100)
	if !ok || p.Float64(1) != 0.0 {
		t.Fatalf("reader saw in-flight iterative state: %v", p)
	}
	if err := tbl.CommitIterative(50, nil); err != nil {
		t.Fatal(err)
	}
	// Before the commit timestamp: old value; after: new value.
	p, _ = tbl.Read(0, 49)
	if p.Float64(1) != 0.0 {
		t.Fatalf("pre-commit snapshot changed: %v", p)
	}
	p, _ = tbl.Read(0, 50)
	if p.Float64(1) != 0.5 {
		t.Fatalf("post-commit snapshot missing result: %v", p)
	}
}

func TestStartIterativeRejectsDoubleStart(t *testing.T) {
	tbl := newNodeTable(t, 1)
	if err := tbl.StartIterative(5, 1, nil); err != nil {
		t.Fatal(err)
	}
	if err := tbl.StartIterative(6, 1, nil); err == nil {
		t.Fatal("second concurrent StartIterative succeeded")
	}
}

func TestAbortIterativeRestoresChain(t *testing.T) {
	tbl := newNodeTable(t, 2)
	if err := tbl.StartIterative(5, 1, nil); err != nil {
		t.Fatal(err)
	}
	ir := tbl.IterRecord(0)
	p := tbl.Schema().NewPayload()
	p.SetFloat64(1, 0.77)
	ir.Install(p)
	if err := tbl.AbortIterative(nil); err != nil {
		t.Fatal(err)
	}
	got, ok := tbl.Read(0, 100)
	if !ok || got.Float64(1) != 0.0 {
		t.Fatalf("abort leaked iterative state: %v", got)
	}
	if tbl.IterRecord(0) != nil {
		t.Fatal("iterative record still at chain head after abort")
	}
	// A new uber-transaction can start again after the abort.
	if err := tbl.StartIterative(7, 1, nil); err != nil {
		t.Fatalf("restart after abort failed: %v", err)
	}
}

func TestAbortIterativeWithoutStartFails(t *testing.T) {
	tbl := newNodeTable(t, 1)
	if err := tbl.AbortIterative(nil); err == nil {
		t.Fatal("AbortIterative without StartIterative succeeded")
	}
}

func TestCommitIterativeWithoutStartFails(t *testing.T) {
	tbl := newNodeTable(t, 1)
	if err := tbl.CommitIterative(9, nil); err == nil {
		t.Fatal("CommitIterative without StartIterative succeeded")
	}
}

func TestStartIterativeSubsetOfRows(t *testing.T) {
	tbl := newNodeTable(t, 5)
	rows := []RowID{1, 3}
	if err := tbl.StartIterative(5, 2, rows); err != nil {
		t.Fatal(err)
	}
	if tbl.IterRecord(0) != nil || tbl.IterRecord(2) != nil || tbl.IterRecord(4) != nil {
		t.Fatal("rows outside the subset got iterative records")
	}
	if tbl.IterRecord(1) == nil || tbl.IterRecord(3) == nil {
		t.Fatal("subset rows missing iterative records")
	}
	if err := tbl.CommitIterative(50, rows); err != nil {
		t.Fatal(err)
	}
	if err := tbl.StartIterative(60, 2, []RowID{99}); err == nil {
		t.Fatal("StartIterative on absent row succeeded")
	}
}

func TestIterRecordAfterCommitStillAccessible(t *testing.T) {
	// After commit the record is published but remains iterative, matching
	// Figure 4's committed iterative record with Begin = T_TE.
	tbl := newNodeTable(t, 1)
	if err := tbl.StartIterative(5, 1, nil); err != nil {
		t.Fatal(err)
	}
	if err := tbl.CommitIterative(50, nil); err != nil {
		t.Fatal(err)
	}
	if tbl.IterRecord(0) == nil {
		t.Fatal("published iterative record not reachable")
	}
}

// TestCommitIterativeAllocatesPerTable: publishing the iterative results
// copies each row's newest snapshot straight into its version, so the
// commit allocates nothing per row.
func TestCommitIterativeAllocatesPerTable(t *testing.T) {
	allocs := func(n int) uint64 {
		return alloctest.Min(5, func() func() {
			tbl := newNodeTable(t, n)
			if err := tbl.StartIterative(5, 1, nil); err != nil {
				t.Fatal(err)
			}
			return func() {
				if err := tbl.CommitIterative(6, nil); err != nil {
					t.Fatal(err)
				}
			}
		}).Mallocs
	}
	small, large := allocs(256), allocs(4096)
	if large > small || large > 2 {
		t.Fatalf("CommitIterative allocations: %d at 256 rows, %d at 4096 rows; want a small constant", small, large)
	}
}
