package txn

import (
	"errors"
	"sync"
	"testing"

	"db4ml/internal/storage"
	"db4ml/internal/table"
)

func accountsTable(t *testing.T, m *Manager, n int, balance float64) *table.Table {
	t.Helper()
	tbl := table.New("Account", table.MustSchema(
		table.Column{Name: "ID", Type: table.Int64},
		table.Column{Name: "Balance", Type: table.Float64},
	))
	m.PublishAt(func(ts storage.Timestamp) {
		for i := 0; i < n; i++ {
			p := tbl.Schema().NewPayload()
			p.SetInt64(0, int64(i))
			p.SetFloat64(1, balance)
			if _, err := tbl.Append(ts, p); err != nil {
				t.Fatal(err)
			}
		}
	})
	return tbl
}

func TestReadCommittedSnapshot(t *testing.T) {
	m := NewManager()
	tbl := accountsTable(t, m, 3, 100)
	tx := m.Begin()
	p, ok := tx.Read(tbl, 1)
	if !ok || p.Float64(1) != 100 {
		t.Fatalf("Read = (%v, %v)", p, ok)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("read-only commit failed: %v", err)
	}
}

func TestReadYourWrites(t *testing.T) {
	m := NewManager()
	tbl := accountsTable(t, m, 1, 100)
	tx := m.Begin()
	p, _ := tx.Read(tbl, 0)
	p.SetFloat64(1, 55)
	if err := tx.Write(tbl, 0, p); err != nil {
		t.Fatal(err)
	}
	got, ok := tx.Read(tbl, 0)
	if !ok || got.Float64(1) != 55 {
		t.Fatalf("read-your-writes = (%v, %v)", got, ok)
	}
	// Other transactions do not see the buffered write.
	other := m.Begin()
	theirs, _ := other.Read(tbl, 0)
	if theirs.Float64(1) != 100 {
		t.Fatalf("buffered write leaked: %v", theirs)
	}
}

func TestCommitPublishesAtomically(t *testing.T) {
	m := NewManager()
	tbl := accountsTable(t, m, 2, 100)
	// Transfer 40 from account 0 to account 1.
	tx := m.Begin()
	from, _ := tx.Read(tbl, 0)
	to, _ := tx.Read(tbl, 1)
	from.SetFloat64(1, from.Float64(1)-40)
	to.SetFloat64(1, to.Float64(1)+40)
	if err := tx.Write(tbl, 0, from); err != nil {
		t.Fatal(err)
	}
	if err := tx.Write(tbl, 1, to); err != nil {
		t.Fatal(err)
	}
	before := m.Begin() // snapshot taken before the commit
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	after := m.Begin()
	b0, _ := before.Read(tbl, 0)
	b1, _ := before.Read(tbl, 1)
	if b0.Float64(1) != 100 || b1.Float64(1) != 100 {
		t.Fatalf("earlier snapshot observes later commit: %v %v", b0, b1)
	}
	a0, _ := after.Read(tbl, 0)
	a1, _ := after.Read(tbl, 1)
	if a0.Float64(1) != 60 || a1.Float64(1) != 140 {
		t.Fatalf("transfer lost: %v %v", a0, a1)
	}
	if a0.Float64(1)+a1.Float64(1) != 200 {
		t.Fatal("money created or destroyed")
	}
}

func TestFirstCommitterWins(t *testing.T) {
	m := NewManager()
	tbl := accountsTable(t, m, 1, 100)
	t1 := m.Begin()
	t2 := m.Begin()
	p1, _ := t1.Read(tbl, 0)
	p2, _ := t2.Read(tbl, 0)
	p1.SetFloat64(1, 1)
	p2.SetFloat64(1, 2)
	if err := t1.Write(tbl, 0, p1); err != nil {
		t.Fatal(err)
	}
	if err := t2.Write(tbl, 0, p2); err != nil {
		t.Fatal(err)
	}
	if err := t1.Commit(); err != nil {
		t.Fatalf("first committer failed: %v", err)
	}
	if err := t2.Commit(); !errors.Is(err, ErrConflict) {
		t.Fatalf("second committer got %v, want ErrConflict", err)
	}
	final, _ := m.Begin().Read(tbl, 0)
	if final.Float64(1) != 1 {
		t.Fatalf("lost update: balance %v", final.Float64(1))
	}
}

func TestConflictUnwindsPartialInstall(t *testing.T) {
	m := NewManager()
	tbl := accountsTable(t, m, 2, 100)
	// t2 will conflict on row 1 only; its pending install on row 0 must be
	// unwound so t3 can still write row 0.
	t1 := m.Begin()
	t2 := m.Begin()
	p, _ := t1.Read(tbl, 1)
	p.SetFloat64(1, 500)
	if err := t1.Write(tbl, 1, p); err != nil {
		t.Fatal(err)
	}
	q0, _ := t2.Read(tbl, 0)
	q1, _ := t2.Read(tbl, 1)
	q0.SetFloat64(1, 7)
	q1.SetFloat64(1, 7)
	if err := t2.Write(tbl, 0, q0); err != nil {
		t.Fatal(err)
	}
	if err := t2.Write(tbl, 1, q1); err != nil {
		t.Fatal(err)
	}
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := t2.Commit(); !errors.Is(err, ErrConflict) {
		t.Fatalf("t2 commit = %v, want conflict", err)
	}
	t3 := m.Begin()
	r, _ := t3.Read(tbl, 0)
	r.SetFloat64(1, 42)
	if err := t3.Write(tbl, 0, r); err != nil {
		t.Fatal(err)
	}
	if err := t3.Commit(); err != nil {
		t.Fatalf("row 0 still blocked after unwind: %v", err)
	}
}

func TestAbortDiscardsWrites(t *testing.T) {
	m := NewManager()
	tbl := accountsTable(t, m, 1, 100)
	tx := m.Begin()
	p, _ := tx.Read(tbl, 0)
	p.SetFloat64(1, 0)
	if err := tx.Write(tbl, 0, p); err != nil {
		t.Fatal(err)
	}
	tx.Abort()
	if err := tx.Commit(); !errors.Is(err, ErrDone) {
		t.Fatalf("commit after abort = %v, want ErrDone", err)
	}
	got, _ := m.Begin().Read(tbl, 0)
	if got.Float64(1) != 100 {
		t.Fatal("aborted write became visible")
	}
}

func TestUseAfterFinish(t *testing.T) {
	m := NewManager()
	tbl := accountsTable(t, m, 1, 100)
	tx := m.Begin()
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Write(tbl, 0, tbl.Schema().NewPayload()); !errors.Is(err, ErrDone) {
		t.Fatalf("Write after commit = %v", err)
	}
	if _, ok := tx.Read(tbl, 0); ok {
		t.Fatal("Read after commit succeeded")
	}
	if err := tx.Insert(tbl, tbl.Schema().NewPayload()); !errors.Is(err, ErrDone) {
		t.Fatalf("Insert after commit = %v", err)
	}
}

func TestInsertVisibleAfterCommit(t *testing.T) {
	m := NewManager()
	tbl := accountsTable(t, m, 1, 100)
	tx := m.Begin()
	p := tbl.Schema().NewPayload()
	p.SetInt64(0, 99)
	p.SetFloat64(1, 5)
	if err := tx.Insert(tbl, p); err != nil {
		t.Fatal(err)
	}
	concurrent := m.Begin()
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	rows := tx.InsertedRows()
	if len(rows) != 1 {
		t.Fatalf("InsertedRows = %v", rows)
	}
	if _, ok := concurrent.Read(tbl, rows[0]); ok {
		t.Fatal("concurrent snapshot sees later insert")
	}
	got, ok := m.Begin().Read(tbl, rows[0])
	if !ok || got.Int64(0) != 99 {
		t.Fatalf("inserted row = (%v, %v)", got, ok)
	}
}

func TestWriteWidthValidation(t *testing.T) {
	m := NewManager()
	tbl := accountsTable(t, m, 1, 100)
	tx := m.Begin()
	if err := tx.Write(tbl, 0, storage.Payload{1}); err == nil {
		t.Fatal("Write with wrong width accepted")
	}
	if err := tx.Insert(tbl, storage.Payload{1, 2, 3}); err == nil {
		t.Fatal("Insert with wrong width accepted")
	}
}

func TestUpdateCol(t *testing.T) {
	m := NewManager()
	tbl := accountsTable(t, m, 1, 100)
	tx := m.Begin()
	err := tx.UpdateCol(tbl, 0, 1, func(old uint64) uint64 {
		p := storage.Payload{old}
		p.SetFloat64(0, p.Float64(0)+1)
		return p[0]
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	got, _ := m.Begin().Read(tbl, 0)
	if got.Float64(1) != 101 {
		t.Fatalf("UpdateCol result = %v", got.Float64(1))
	}
	tx2 := m.Begin()
	if err := tx2.UpdateCol(tbl, 42, 1, func(v uint64) uint64 { return v }); err == nil {
		t.Fatal("UpdateCol on absent row succeeded")
	}
}

func TestConcurrentIncrementsSerialize(t *testing.T) {
	m := NewManager()
	tbl := accountsTable(t, m, 1, 0)
	const workers = 8
	const eachAdds = 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < eachAdds; i++ {
				for { // retry on conflict
					tx := m.Begin()
					p, ok := tx.Read(tbl, 0)
					if !ok {
						t.Error("row unreadable")
						return
					}
					p.SetFloat64(1, p.Float64(1)+1)
					if err := tx.Write(tbl, 0, p); err != nil {
						t.Error(err)
						return
					}
					if err := tx.Commit(); err == nil {
						break
					} else if !errors.Is(err, ErrConflict) {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	final, _ := m.Begin().Read(tbl, 0)
	if got := final.Float64(1); got != workers*eachAdds {
		t.Fatalf("counter = %v, want %d (updates lost or duplicated)", got, workers*eachAdds)
	}
}

func TestOLTPBlockedByInFlightIterative(t *testing.T) {
	// A normal transaction writing a row that an uber-transaction holds an
	// in-flight iterative version on must abort, not read or overwrite
	// in-flight ML state.
	m := NewManager()
	tbl := accountsTable(t, m, 1, 100)
	if err := tbl.StartIterative(m.Stable(), 1, nil); err != nil {
		t.Fatal(err)
	}
	tx := m.Begin()
	p, _ := tx.Read(tbl, 0)
	if p.Float64(1) != 100 {
		t.Fatalf("OLTP read saw in-flight iterative state: %v", p)
	}
	p.SetFloat64(1, 1)
	if err := tx.Write(tbl, 0, p); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrConflict) {
		t.Fatalf("commit against in-flight iterative version = %v, want conflict", err)
	}
}

// TestBeginCutReadsOneCutReadOnly: a transaction over two managers sharing
// an oracle reads at the oracle's value with both commit locks held — past
// the stable watermark of the manager that published earlier — is pinned
// on both until it settles, and refuses every write.
func TestBeginCutReadsOneCutReadOnly(t *testing.T) {
	o := &storage.Oracle{}
	a, b := NewManagerWithOracle(o), NewManagerWithOracle(o)
	tbl := accountsTable(t, a, 2, 10)
	b.PublishAt(func(storage.Timestamp) {})
	if a.Stable() >= b.Stable() {
		t.Fatalf("stable a=%d b=%d, want a behind", a.Stable(), b.Stable())
	}
	tx := BeginCut([]*Manager{a, b})
	if tx.BeginTS() != o.Current() || tx.BeginTS() != b.Stable() {
		t.Fatalf("cut at %d, oracle %d", tx.BeginTS(), o.Current())
	}
	if a.ActiveSnapshots() != 1 || b.ActiveSnapshots() != 1 || a.SafeWatermark() != a.Stable() {
		t.Fatalf("pins a=%d b=%d, safe watermark %d", a.ActiveSnapshots(), b.ActiveSnapshots(), a.SafeWatermark())
	}
	if p, ok := tx.Read(tbl, 1); !ok || p.Float64(1) != 10 {
		t.Fatalf("read at the cut = (%v, %v)", p, ok)
	}
	for name, err := range map[string]error{
		"Write":     tx.Write(tbl, 0, storage.Payload{0, 0}),
		"Delete":    tx.Delete(tbl, 0),
		"Insert":    tx.Insert(tbl, storage.Payload{0, 0}),
		"UpdateCol": tx.UpdateCol(tbl, 0, 1, func(v uint64) uint64 { return v }),
	} {
		if !errors.Is(err, ErrCrossKernelWrite) {
			t.Fatalf("%s = %v, want ErrCrossKernelWrite", name, err)
		}
	}
	stable := a.Stable()
	tx.Abort()
	if a.ActiveSnapshots() != 0 || b.ActiveSnapshots() != 0 || a.Stable() != stable {
		t.Fatalf("after Abort: pins a=%d b=%d, stable a %d -> %d", a.ActiveSnapshots(), b.ActiveSnapshots(), stable, a.Stable())
	}
}
