// OLTP + ML coexistence: the property that distinguishes DB4ML from
// specialized ML engines (Section 2.1). A bank-account ML-table serves
// concurrent transfer transactions under snapshot isolation while an ML
// algorithm runs over a second table in the same database; transactions
// that collide with the ML uber-transaction's in-flight state abort
// cleanly and retry.
package main

import (
	"errors"
	"fmt"
	"log"
	"math/rand"
	"sync"
	"sync/atomic"

	"db4ml"
	"db4ml/internal/storage"
)

// smoother is the ML side: each row repeatedly averages itself with its
// ring neighbor until the whole table converges to the mean.
type smoother struct {
	tbl         *db4ml.Table
	row, nbr    db4ml.RowID
	rec, nbrRec *storage.IterativeRecord
	buf, nbuf   db4ml.Payload
	delta       float64
}

func (s *smoother) Begin(ctx *db4ml.Ctx) {
	s.rec = s.tbl.IterRecord(s.row)
	s.nbrRec = s.tbl.IterRecord(s.nbr)
	s.buf = make(db4ml.Payload, 2)
	s.nbuf = make(db4ml.Payload, 2)
}

func (s *smoother) Execute(ctx *db4ml.Ctx) {
	ctx.Read(s.rec, s.buf)
	ctx.Read(s.nbrRec, s.nbuf)
	mine, theirs := s.buf.Float64(1), s.nbuf.Float64(1)
	avg := (mine + theirs) / 2
	s.delta = mine - avg
	s.buf.SetFloat64(1, avg)
	ctx.Write(s.rec, s.buf)
}

func (s *smoother) Validate(ctx *db4ml.Ctx) db4ml.Action {
	if s.delta < 1e-6 && s.delta > -1e-6 && ctx.Iteration() > 3 {
		return db4ml.Done
	}
	return db4ml.Commit
}

func main() {
	db := db4ml.Open(db4ml.WithWorkers(2))
	defer db.Close()
	accounts, err := db.CreateTable("Account",
		db4ml.Column{Name: "ID", Type: db4ml.Int64},
		db4ml.Column{Name: "Balance", Type: db4ml.Float64})
	if err != nil {
		log.Fatal(err)
	}
	signals, err := db.CreateTable("Signal",
		db4ml.Column{Name: "ID", Type: db4ml.Int64},
		db4ml.Column{Name: "V", Type: db4ml.Float64})
	if err != nil {
		log.Fatal(err)
	}

	const nAccounts = 64
	const initial = 1000.0
	var rows []db4ml.Payload
	for i := 0; i < nAccounts; i++ {
		p := accounts.Schema().NewPayload()
		p.SetInt64(0, int64(i))
		p.SetFloat64(1, initial)
		rows = append(rows, p)
	}
	if err := db.BulkLoad(accounts, rows); err != nil {
		log.Fatal(err)
	}
	rows = rows[:0]
	for i := 0; i < 128; i++ {
		p := signals.Schema().NewPayload()
		p.SetInt64(0, int64(i))
		p.SetFloat64(1, float64(i))
		rows = append(rows, p)
	}
	if err := db.BulkLoad(signals, rows); err != nil {
		log.Fatal(err)
	}

	// OLTP load: 4 clients × 500 random transfers, retrying on conflict.
	var committed, conflicts atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			for i := 0; i < 500; i++ {
				from := db4ml.RowID(rng.Intn(nAccounts))
				to := db4ml.RowID(rng.Intn(nAccounts))
				if from == to {
					continue
				}
				amount := float64(rng.Intn(50) + 1)
				for {
					tx := db.Begin()
					a, _ := tx.Read(accounts, from)
					b, _ := tx.Read(accounts, to)
					a.SetFloat64(1, a.Float64(1)-amount)
					b.SetFloat64(1, b.Float64(1)+amount)
					if err := tx.Write(accounts, from, a); err != nil {
						log.Fatal(err)
					}
					if err := tx.Write(accounts, to, b); err != nil {
						log.Fatal(err)
					}
					err := tx.Commit()
					if err == nil {
						committed.Add(1)
						break
					}
					if !errors.Is(err, db4ml.ErrConflict) {
						log.Fatal(err)
					}
					conflicts.Add(1)
				}
			}
		}(c)
	}

	// ML load, concurrently, over the Signal table.
	subs := make([]db4ml.IterativeTransaction, 128)
	for i := range subs {
		subs[i] = &smoother{tbl: signals, row: db4ml.RowID(i), nbr: db4ml.RowID((i + 1) % 128)}
	}
	stats, err := db.RunML(db4ml.MLRun{
		Isolation: db4ml.MLOptions{Level: db4ml.Asynchronous},
		Attach:    []db4ml.Attachment{{Table: signals}},
		Subs:      subs,
	})
	if err != nil {
		log.Fatal(err)
	}
	wg.Wait()

	// Invariant: transfers conserve total balance exactly.
	tx := db.Begin()
	total := 0.0
	for i := 0; i < nAccounts; i++ {
		p, _ := tx.Read(accounts, db4ml.RowID(i))
		total += p.Float64(1)
	}
	fmt.Printf("OLTP: %d transfers committed, %d conflicts retried\n", committed.Load(), conflicts.Load())
	fmt.Printf("balance invariant: total = %.1f (want %.1f)\n", total, float64(nAccounts)*initial)
	fmt.Printf("ML (concurrent): %d commits in %v\n", stats.Commits, stats.Elapsed.Round(1000))
	p0, _ := tx.Read(signals, 0)
	p64, _ := tx.Read(signals, 64)
	fmt.Printf("smoothed signal: row0=%.3f row64=%.3f (converging toward the mean 63.5)\n",
		p0.Float64(1), p64.Float64(1))
}
