package db4ml

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"db4ml/internal/exec"
	"db4ml/internal/graph"
	"db4ml/internal/isolation"
	"db4ml/internal/ml/labelprop"
	"db4ml/internal/ml/pagerank"
	"db4ml/internal/ml/sgd"
	"db4ml/internal/resilience"
	"db4ml/internal/svm"
	"db4ml/internal/txn"
)

// TestMLRunnersAbortOnDeadline: every ML runner whose job misses its
// deadline returns resilience.ErrJobDeadline and aborts its
// uber-transaction — the attached table keeps its pre-run values and no
// snapshot stays pinned. The iteration hook slows every execution down so
// each job outlives its 1 ns deadline by a wide margin.
func TestMLRunnersAbortOnDeadline(t *testing.T) {
	pool, err := exec.NewPool(exec.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	jc := exec.JobConfig{
		Deadline:      time.Nanosecond,
		IterationHook: func(int) { time.Sleep(100 * time.Microsecond) },
	}
	g := graph.BarabasiAlbert(200, 4, 3)
	cases := []struct {
		name string
		// run loads the runner's tables into mgr and returns the attached
		// table plus the run itself.
		run func(t *testing.T, mgr *txn.Manager) (*Table, func() error)
	}{
		{"pagerank", func(t *testing.T, mgr *txn.Manager) (*Table, func() error) {
			node, edge, err := pagerank.LoadTables(mgr, g)
			if err != nil {
				t.Fatal(err)
			}
			return node, func() error {
				_, err := pagerank.Run(mgr, node, edge, pagerank.Config{
					Exec: jc, Pool: pool, Isolation: isolation.Options{Level: isolation.Synchronous}, Epsilon: 1e-12,
				})
				return err
			}
		}},
		{"sgd", func(t *testing.T, mgr *txn.Manager) (*Table, func() error) {
			train, _ := svm.Generate(svm.GenSpec{Train: 400, Test: 1, Features: 10, Density: 1, Noise: 0.05, Seed: 5})
			tables, err := sgd.LoadTables(mgr, train, 10, 1)
			if err != nil {
				t.Fatal(err)
			}
			return tables.Params, func() error {
				_, err := sgd.Run(mgr, tables, sgd.Config{Exec: jc, Pool: pool, Epochs: 200, Seed: 1})
				return err
			}
		}},
		{"labelprop", func(t *testing.T, mgr *txn.Manager) (*Table, func() error) {
			tbl, err := labelprop.LoadTable(mgr, g)
			if err != nil {
				t.Fatal(err)
			}
			return tbl, func() error {
				_, err := labelprop.Run(mgr, tbl, g, labelprop.Config{Exec: jc, Pool: pool})
				return err
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			mgr := txn.NewManager()
			tbl, run := c.run(t, mgr)
			before := tableRows(tbl, mgr.Stable())
			if err := run(); !errors.Is(err, resilience.ErrJobDeadline) {
				t.Fatalf("err = %v, want ErrJobDeadline", err)
			}
			if after := tableRows(tbl, mgr.Stable()); fmt.Sprint(after) != fmt.Sprint(before) {
				t.Fatalf("aborted run changed the attached table:\nbefore %v\nafter  %v", before, after)
			}
			if n := mgr.ActiveSnapshots(); n != 0 {
				t.Fatalf("%d snapshots still pinned after the failed run", n)
			}
		})
	}
}

// tableRows renders every row of tbl visible at ts.
func tableRows(tbl *Table, ts Timestamp) []string {
	var rows []string
	tbl.Scan(ts, func(id RowID, p Payload) bool {
		rows = append(rows, fmt.Sprint(id, p))
		return true
	})
	return rows
}
