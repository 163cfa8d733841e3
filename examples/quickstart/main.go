// Quickstart: open a DB4ML database, create an ML-table, run classical
// OLTP transactions against it, then run a tiny user-defined ML algorithm
// (a fixed-point halving iteration) as iterative transactions — all
// through the public API.
package main

import (
	"fmt"
	"log"

	"db4ml"
	"db4ml/internal/storage"
)

// halver is a user-defined iterative transaction: every iteration it
// halves its row's value, converging when the value drops below 1.
type halver struct {
	tbl *db4ml.Table
	row db4ml.RowID

	// tx_state, cached in Begin and reused each iteration.
	rec *storage.IterativeRecord
	buf db4ml.Payload
	cur float64
}

func (h *halver) Begin(ctx *db4ml.Ctx) {
	h.rec = h.tbl.IterRecord(h.row)
	h.buf = make(db4ml.Payload, 2)
}

func (h *halver) Execute(ctx *db4ml.Ctx) {
	ctx.Read(h.rec, h.buf)
	h.cur = h.buf.Float64(1) / 2
	h.buf.SetFloat64(1, h.cur)
	ctx.Write(h.rec, h.buf)
}

func (h *halver) Validate(ctx *db4ml.Ctx) db4ml.Action {
	if h.cur < 1 {
		return db4ml.Done
	}
	return db4ml.Commit
}

func main() {
	db := db4ml.Open(db4ml.WithWorkers(4))
	defer db.Close()

	// 1. Create an ML-table and bulk load it.
	values, err := db.CreateTable("Values",
		db4ml.Column{Name: "ID", Type: db4ml.Int64},
		db4ml.Column{Name: "V", Type: db4ml.Float64},
	)
	if err != nil {
		log.Fatal(err)
	}
	var rows []db4ml.Payload
	for i := 0; i < 8; i++ {
		p := values.Schema().NewPayload()
		p.SetInt64(0, int64(i))
		p.SetFloat64(1, float64(100+i*50))
		rows = append(rows, p)
	}
	if err := db.BulkLoad(values, rows); err != nil {
		log.Fatal(err)
	}

	// 2. Classical OLTP: transfer 25 units from row 0 to row 1,
	// atomically under snapshot isolation.
	tx := db.Begin()
	a, _ := tx.Read(values, 0)
	b, _ := tx.Read(values, 1)
	a.SetFloat64(1, a.Float64(1)-25)
	b.SetFloat64(1, b.Float64(1)+25)
	if err := tx.Write(values, 0, a); err != nil {
		log.Fatal(err)
	}
	if err := tx.Write(values, 1, b); err != nil {
		log.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("after OLTP transfer:")
	printAll(db, values)

	// 3. User-defined ML: halve every value until all drop below 1. The
	// intermediate state is invisible to other transactions until the
	// uber-transaction commits.
	subs := make([]db4ml.IterativeTransaction, 8)
	for i := range subs {
		subs[i] = &halver{tbl: values, row: db4ml.RowID(i)}
	}
	stats, err := db.RunML(db4ml.MLRun{
		Isolation: db4ml.MLOptions{Level: db4ml.Asynchronous},
		Attach:    []db4ml.Attachment{{Table: values}},
		Subs:      subs,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nML run: %d iterations committed in %v\n", stats.Commits, stats.Elapsed.Round(1000))
	fmt.Println("after ML run (all values < 1):")
	printAll(db, values)
}

func printAll(db *db4ml.DB, tbl *db4ml.Table) {
	tx := db.Begin()
	for i := 0; i < tbl.NumRows(); i++ {
		p, _ := tx.Read(tbl, db4ml.RowID(i))
		fmt.Printf("  row %d: %.4f\n", i, p.Float64(1))
	}
}
