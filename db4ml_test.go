package db4ml

import (
	"errors"
	"math"
	"testing"

	"db4ml/internal/storage"
)

func openWithCounters(t *testing.T, n int, opts ...Option) (*DB, *Table) {
	t.Helper()
	db := Open(opts...)
	tbl, err := db.CreateTable("Counter",
		Column{Name: "ID", Type: Int64},
		Column{Name: "Value", Type: Float64},
	)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]Payload, n)
	for i := range rows {
		p := tbl.Schema().NewPayload()
		p.SetInt64(0, int64(i))
		p.SetFloat64(1, 0)
		rows[i] = p
	}
	if err := db.BulkLoad(tbl, rows); err != nil {
		t.Fatal(err)
	}
	return db, tbl
}

func TestCreateTableDuplicate(t *testing.T) {
	db := Open()
	if _, err := db.CreateTable("T", Column{Name: "a", Type: Int64}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable("T", Column{Name: "a", Type: Int64}); err == nil {
		t.Fatal("duplicate table accepted")
	}
	if db.Table("T") == nil || db.Table("missing") != nil {
		t.Fatal("Table lookup wrong")
	}
}

func TestCreateTableInvalidSchema(t *testing.T) {
	db := Open()
	if _, err := db.CreateTable("T"); err != nil {
		t.Fatal("empty schema should be allowed:", err)
	}
	if _, err := db.CreateTable("U", Column{Name: "", Type: Int64}); err == nil {
		t.Fatal("invalid schema accepted")
	}
}

func TestOLTPRoundTrip(t *testing.T) {
	db, tbl := openWithCounters(t, 3)
	tx := db.Begin()
	p, ok := tx.Read(tbl, 1)
	if !ok {
		t.Fatal("bulk-loaded row invisible")
	}
	p.SetFloat64(1, 5)
	if err := tx.Write(tbl, 1, p); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	got, _ := db.Begin().Read(tbl, 1)
	if got.Float64(1) != 5 {
		t.Fatalf("committed value = %v", got.Float64(1))
	}
}

// incSub bumps its row's value by 1 per iteration until reaching target —
// a minimal user-defined iterative transaction through the public API.
type incSub struct {
	tbl    *Table
	row    RowID
	target float64
	rec    *storage.IterativeRecord
	buf    Payload
	cur    float64
}

func (s *incSub) Begin(ctx *Ctx) {
	s.rec = s.tbl.IterRecord(s.row)
	s.buf = make(Payload, 2)
}

func (s *incSub) Execute(ctx *Ctx) {
	ctx.Read(s.rec, s.buf)
	s.cur = s.buf.Float64(1) + 1
	s.buf.SetFloat64(1, s.cur)
	ctx.Write(s.rec, s.buf)
}

func (s *incSub) Validate(ctx *Ctx) Action {
	if s.cur >= s.target {
		return Done
	}
	return Commit
}

func TestRunMLEndToEnd(t *testing.T) {
	const n = 40
	db, tbl := openWithCounters(t, n, WithWorkers(4))
	subs := make([]IterativeTransaction, n)
	for i := range subs {
		subs[i] = &incSub{tbl: tbl, row: RowID(i), target: 7}
	}
	stats, err := db.RunML(MLRun{
		Isolation: MLOptions{Level: Asynchronous},
		BatchSize: 8,
		Attach:    []Attachment{{Table: tbl}},
		Subs:      subs,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Commits != n*7 {
		t.Fatalf("commits = %d, want %d", stats.Commits, n*7)
	}
	for i := 0; i < n; i++ {
		p, _ := db.Begin().Read(tbl, RowID(i))
		if p.Float64(1) != 7 {
			t.Fatalf("row %d = %v after ML run", i, p.Float64(1))
		}
	}
}

func TestRunMLInvalidIsolation(t *testing.T) {
	db, tbl := openWithCounters(t, 1)
	_, err := db.RunML(MLRun{
		Isolation: MLOptions{Level: 99},
		Attach:    []Attachment{{Table: tbl}},
	})
	if err == nil {
		t.Fatal("invalid isolation accepted")
	}
}

func TestRunMLAttachFailureAborts(t *testing.T) {
	db, tbl := openWithCounters(t, 2, WithWorkers(2))
	// Attach the same table twice: the second StartIterative must fail and
	// the first must be rolled back so the table is reusable.
	_, err := db.RunML(MLRun{
		Isolation: MLOptions{Level: Asynchronous},
		Attach:    []Attachment{{Table: tbl}, {Table: tbl}},
	})
	if err == nil {
		t.Fatal("double attach accepted")
	}
	// Table is clean again: a fresh run works.
	subs := []IterativeTransaction{&incSub{tbl: tbl, row: 0, target: 1}}
	if _, err := db.RunML(MLRun{
		Isolation: MLOptions{Level: Asynchronous},
		Attach:    []Attachment{{Table: tbl}},
		Subs:      subs,
	}); err != nil {
		t.Fatalf("table unusable after failed attach: %v", err)
	}
}

func TestRunMLSynchronousDeterministic(t *testing.T) {
	const n = 16
	run := func(workers int) []float64 {
		db, tbl := openWithCounters(t, n, WithWorkers(workers))
		subs := make([]IterativeTransaction, n)
		for i := range subs {
			subs[i] = &incSub{tbl: tbl, row: RowID(i), target: 5}
		}
		if _, err := db.RunML(MLRun{
			Isolation: MLOptions{Level: Synchronous},
			Attach:    []Attachment{{Table: tbl}},
			Subs:      subs,
		}); err != nil {
			t.Fatal(err)
		}
		out := make([]float64, n)
		for i := range out {
			p, _ := db.Begin().Read(tbl, RowID(i))
			out[i] = p.Float64(1)
		}
		return out
	}
	a, b := run(1), run(4)
	for i := range a {
		if a[i] != b[i] || math.IsNaN(a[i]) {
			t.Fatalf("sync results differ across worker counts: %v vs %v", a, b)
		}
	}
}

func TestOLTPConflictsWithRunningML(t *testing.T) {
	db, tbl := openWithCounters(t, 1)
	// Simulate an in-flight uber-transaction by attaching manually via
	// RunML with a sub that spins once; simpler: start iterative directly.
	if err := tbl.StartIterative(db.Stable(), 1, nil); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	p, _ := tx.Read(tbl, 0)
	p.SetFloat64(1, 9)
	if err := tx.Write(tbl, 0, p); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrConflict) {
		t.Fatalf("OLTP write over in-flight ML state: %v, want ErrConflict", err)
	}
}
