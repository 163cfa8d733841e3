package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"time"

	"db4ml"
	"db4ml/internal/plan"
)

const querySelect = 0.05 // share of Fact rows the filter keeps

// queryInst is star_query: SELECT K, SUM(V*W) FROM Fact JOIN Dim ON K = DK
// WHERE V < thresh GROUP BY K — the BENCH_PLAN star query on seeded rows.
type queryInst struct {
	factRows, dimRows int
	tmp               string
	// The generated rows, which the oracle and the raw rung loop over.
	k      []int64
	v, w   []float64
	thresh float64
	want   map[int64]float64

	db        *db4ml.DB
	fact, dim *db4ml.Table
	last      *db4ml.Relation
}

func queryWorkload(name string) workload {
	return workload{name: name, unit: "fact row", setup: func(seed int64, sz sizes, tmp string) (instance, error) {
		q := &queryInst{factRows: sz.factRows, dimRows: sz.dimRows, tmp: tmp}
		rng := rand.New(rand.NewSource(seed))
		q.k, q.v, q.w = make([]int64, q.factRows), make([]float64, q.factRows), make([]float64, q.dimRows)
		// V is a seeded permutation of [0, factRows): the filter keeps
		// exactly querySelect of the rows, scattered over the whole table.
		for i, p := range rng.Perm(q.factRows) {
			q.k[i], q.v[i] = int64(rng.Intn(q.dimRows)), float64(p)
		}
		for i := range q.w {
			q.w[i] = 1 + float64(rng.Intn(7))
		}
		q.thresh = querySelect * float64(q.factRows)
		q.want = make(map[int64]float64)
		if err := q.rawLoop(q.want); err != nil {
			return nil, err
		}
		q.db = db4ml.Open(db4ml.WithWorkers(2))
		var err error
		if q.fact, q.dim, err = q.loadInto(q.db); err != nil {
			q.db.Close()
			return nil, err
		}
		if err := q.op(); err != nil { // warm-up
			q.db.Close()
			return nil, err
		}
		return q, q.verify()
	}}
}

func (q *queryInst) loadInto(db *db4ml.DB) (fact, dim *db4ml.Table, err error) {
	if fact, err = db.CreateTable("Fact",
		db4ml.Column{Name: "ID", Type: db4ml.Int64}, db4ml.Column{Name: "K", Type: db4ml.Int64},
		db4ml.Column{Name: "V", Type: db4ml.Float64}); err != nil {
		return nil, nil, err
	}
	if dim, err = db.CreateTable("Dim",
		db4ml.Column{Name: "DK", Type: db4ml.Int64}, db4ml.Column{Name: "W", Type: db4ml.Float64}); err != nil {
		return nil, nil, err
	}
	rows := make([]db4ml.Payload, q.factRows)
	for i := range rows {
		r := make(db4ml.Payload, 3)
		r.SetInt64(0, int64(i))
		r.SetInt64(1, q.k[i])
		r.SetFloat64(2, q.v[i])
		rows[i] = r
	}
	if err = db.BulkLoad(fact, rows); err != nil {
		return nil, nil, err
	}
	rows = make([]db4ml.Payload, q.dimRows)
	for i := range rows {
		r := make(db4ml.Payload, 2)
		r.SetInt64(0, int64(i))
		r.SetFloat64(1, q.w[i])
		rows[i] = r
	}
	return fact, dim, db.BulkLoad(dim, rows)
}

func (q *queryInst) plan(fact, dim *db4ml.Table) *db4ml.Plan {
	return db4ml.Aggregate(
		db4ml.Join(db4ml.Filter(db4ml.Scan(fact), db4ml.FloatCmp("V", db4ml.Lt, q.thresh)), db4ml.Scan(dim), "K", "DK"),
		db4ml.Sum, "K", "s", db4ml.Mul(db4ml.Col("V"), db4ml.Col("W")))
}

func (q *queryInst) unitsPerOp() float64 { return float64(q.factRows) }
func (q *queryInst) burst() int          { return 1 }
func (q *queryInst) baselineReps() int   { return 4 }
func (q *queryInst) native() string      { return "db4ml" }

func (q *queryInst) op() (err error) {
	q.last, err = q.db.RunQuery(context.Background(), db4ml.QueryRun{Plan: q.plan(q.fact, q.dim)})
	return err
}

// rawLoop is the query as a plain Go loop over the generated rows.
func (q *queryInst) rawLoop(out map[int64]float64) error {
	for i, v := range q.v {
		if v < q.thresh {
			out[q.k[i]] += v * q.w[q.k[i]]
		}
	}
	return nil
}

func (q *queryInst) baseline() (time.Duration, error) { return timeOf(q.rawQuery) }

func (q *queryInst) rawQuery() error { return q.rawLoop(make(map[int64]float64, len(q.want))) }

// verify compares the last (K, s) result with the plain loop's.
func (q *queryInst) verify() error {
	if len(q.last.Rows) != len(q.want) {
		return fmt.Errorf("query returned %d groups, the plain loop %d", len(q.last.Rows), len(q.want))
	}
	for _, t := range q.last.Rows {
		k, s := t.Int64(0), t.Float64(1)
		if want, ok := q.want[k]; !ok || math.Abs(s-want) > 1e-9*math.Abs(want) {
			return fmt.Errorf("group %d: query sums %g, the plain loop %g", k, s, want)
		}
	}
	return nil
}

func (q *queryInst) finish() error { return nil }
func (q *queryInst) close()        { q.db.Close() }

// viaPlan runs the query through the plan layer's own functions — Prepare,
// Execute, drain the cursor — and materialises the result like the facade.
func (q *queryInst) viaPlan(env plan.Env, fact, dim *db4ml.Table, tr *tracer) error {
	sp := tr.begin("plan.Prepare")
	prep, err := plan.Prepare(q.plan(fact, dim), env)
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.begin("Prepared.Execute")
	cur, err := prep.Execute(context.Background())
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.begin("Cursor.Next (collect)")
	q.last = &db4ml.Relation{Cols: prep.Columns()}
	for t, ok := cur.Next(); ok; t, ok = cur.Next() {
		q.last.Rows = append(q.last.Rows, t.Clone())
	}
	tr.end(sp)
	sp = tr.begin("Cursor.Close")
	cur.Close()
	tr.end(sp)
	return cur.Err()
}

func (q *queryInst) traced(tr *tracer) error {
	root := tr.begin("op")
	defer tr.end(root)
	return q.viaPlan(plan.Env{Mgr: q.db.Manager()}, q.fact, q.dim, tr)
}

func (q *queryInst) rungs() []rung {
	onDB := func(wal bool, op func(db *db4ml.DB, fact, dim *db4ml.Table) error) prepFunc {
		return func() (func() error, func(), error) {
			opts, cleanup, err := walOption(q.tmp, wal)
			if err != nil {
				return nil, nil, err
			}
			db := db4ml.Open(append(opts, db4ml.WithWorkers(2))...)
			fact, dim, err := q.loadInto(db)
			if err != nil {
				db.Close()
				cleanup()
				return nil, nil, err
			}
			return func() error { return op(db, fact, dim) }, func() {
				db.Close()
				cleanup()
			}, nil
		}
	}
	facade := func(db *db4ml.DB, fact, dim *db4ml.Table) error {
		_, err := db.RunQuery(context.Background(), db4ml.QueryRun{Plan: q.plan(fact, dim)})
		return err
	}
	return []rung{
		{"raw", plainRung(q.rawQuery)},
		// storage: the same loop, but reading the rows back out of the
		// ML-tables with table.Scan at a stable snapshot.
		{"storage", onDB(false, func(db *db4ml.DB, fact, dim *db4ml.Table) error {
			ts := db.Stable()
			w := make([]float64, q.dimRows)
			dim.Scan(ts, func(_ db4ml.RowID, p db4ml.Payload) bool {
				w[p.Int64(0)] = p.Float64(1)
				return true
			})
			out := make(map[int64]float64, len(q.want))
			fact.Scan(ts, func(_ db4ml.RowID, p db4ml.Payload) bool {
				if v := p.Float64(2); v < q.thresh {
					out[p.Int64(1)] += v * w[p.Int64(1)]
				}
				return true
			})
			return nil
		})},
		{"kernel", onDB(false, func(db *db4ml.DB, fact, dim *db4ml.Table) error {
			return q.viaPlan(plan.Env{Mgr: db.Manager()}, fact, dim, nil)
		})},
		// exec: a plain query never enters the worker pool.
		{"db4ml", onDB(false, facade)},
		{"wal", onDB(true, facade)},
		// shard: joins cannot run scattered, so the star query has no
		// sharded form to measure.
	}
}

// detail prints where the plan layer spends a query: Prepare's own time,
// every operator's rows in/out and wall, and rows examined per result row.
func (q *queryInst) detail(w io.Writer) error {
	t0 := time.Now()
	if _, err := q.db.PrepareQuery(q.plan(q.fact, q.dim)); err != nil {
		return err
	}
	prepare := time.Since(t0)
	h, err := q.db.SubmitQuery(context.Background(), db4ml.QueryRun{Plan: q.plan(q.fact, q.dim)})
	if err != nil {
		return err
	}
	rel, err := h.Wait()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  plan.Prepare %.1f us; %d result rows; EXPLAIN ANALYZE:\n", float64(prepare.Nanoseconds())/1e3, len(rel.Rows))
	var walk func(n *db4ml.ExplainNode, depth int)
	walk = func(n *db4ml.ExplainNode, depth int) {
		fmt.Fprintf(w, "    %*s%-28s rows_in %8d  rows_out %8d  wall %9.1f us\n", 2*depth, "", n.Op, n.RowsIn, n.RowsOut, float64(n.TimeNanos)/1e3)
		for _, kid := range n.Kids {
			walk(kid, depth+1)
		}
	}
	if ex := h.Explain(); ex != nil {
		walk(ex, 0)
	}
	var examined uint64
	for _, st := range h.Stats() {
		if st.Op == "scan(Fact)+pushdown" || st.Op == "scan(Fact)" {
			examined = st.RowsOut
		}
	}
	fmt.Fprintf(w, "  fact rows materialised by the scan per result row: %.3f (%d of %d fact rows pass the pushed filter)\n",
		float64(examined)/float64(len(rel.Rows)), examined, q.factRows)
	return nil
}
