package db4ml

// BenchmarkMixedWorkload quantifies the paper's coexistence claim (Section
// 2.1): ML-tables remain usable by classical transactional workloads while
// an ML algorithm runs. It measures OLTP read-modify-write commit latency
// on an Account table, alone and with a continuously running ML
// uber-transaction over a separate Signal table in the same database.

import (
	"sync"
	"sync/atomic"
	"testing"

	"db4ml/internal/storage"
)

// spinningSub keeps updating its row until told to stop.
type spinningSub struct {
	tbl  *Table
	row  RowID
	rec  *storage.IterativeRecord
	stop *atomic.Bool
	n    uint64
}

func (s *spinningSub) Begin(ctx *Ctx) { s.rec = s.tbl.IterRecord(s.row) }
func (s *spinningSub) Execute(ctx *Ctx) {
	s.n++
	ctx.WriteCol(s.rec, 1, s.n)
}
func (s *spinningSub) Validate(ctx *Ctx) Action {
	if s.stop.Load() {
		return Done
	}
	return Commit
}

func loadBenchTable(b *testing.B, db *DB, name string, rows int) *Table {
	b.Helper()
	tbl, err := db.CreateTable(name,
		Column{Name: "ID", Type: Int64},
		Column{Name: "V", Type: Float64})
	if err != nil {
		b.Fatal(err)
	}
	payloads := make([]Payload, rows)
	for i := range payloads {
		p := tbl.Schema().NewPayload()
		p.SetInt64(0, int64(i))
		payloads[i] = p
	}
	if err := db.BulkLoad(tbl, payloads); err != nil {
		b.Fatal(err)
	}
	return tbl
}

func oltpLoop(b *testing.B, db *DB, tbl *Table) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		tx := db.Begin()
		row := RowID(i % tbl.NumRows())
		p, ok := tx.Read(tbl, row)
		if !ok {
			b.Fatal("row unreadable")
		}
		p.SetFloat64(1, p.Float64(1)+1)
		if err := tx.Write(tbl, row, p); err != nil {
			b.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMixedWorkload(b *testing.B) {
	b.Run("oltp-alone", func(b *testing.B) {
		db := Open()
		accounts := loadBenchTable(b, db, "Account", 1024)
		b.ResetTimer()
		oltpLoop(b, db, accounts)
	})
	b.Run("oltp-with-running-ml", func(b *testing.B) {
		db := Open(WithWorkers(2))
		accounts := loadBenchTable(b, db, "Account", 1024)
		signals := loadBenchTable(b, db, "Signal", 256)
		var stop atomic.Bool
		subs := make([]IterativeTransaction, 256)
		for i := range subs {
			subs[i] = &spinningSub{tbl: signals, row: RowID(i), stop: &stop}
		}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := db.RunML(MLRun{
				Isolation: MLOptions{Level: Asynchronous},
				Attach:    []Attachment{{Table: signals}},
				Subs:      subs,
			}); err != nil {
				b.Error(err)
			}
		}()
		b.ResetTimer()
		oltpLoop(b, db, accounts)
		b.StopTimer()
		stop.Store(true)
		wg.Wait()
	})
}
