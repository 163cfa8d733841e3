package db4ml

import (
	"context"
	"errors"
	"testing"
	"time"

	"db4ml/internal/exec"
	"db4ml/internal/graph"
	"db4ml/internal/isolation"
	"db4ml/internal/itx"
	"db4ml/internal/ml/pagerank"
	"db4ml/internal/storage"
)

// loadQueryTable fills a (ID, K, V) table: K = ID % groups, V = float64(ID).
func loadQueryTable(t *testing.T, db *DB, rows, groups int) *Table {
	t.Helper()
	tbl, err := db.CreateTable("Fact",
		Column{Name: "ID", Type: Int64},
		Column{Name: "K", Type: Int64},
		Column{Name: "V", Type: Float64})
	if err != nil {
		t.Fatal(err)
	}
	payloads := make([]Payload, rows)
	for i := range payloads {
		p := tbl.Schema().NewPayload()
		p.SetInt64(0, int64(i))
		p.SetInt64(1, int64(i%groups))
		p.SetFloat64(2, float64(i))
		payloads[i] = p
	}
	if err := db.BulkLoad(tbl, payloads); err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestRunQueryEndToEnd(t *testing.T) {
	db := Open()
	defer db.Close()
	tbl := loadQueryTable(t, db, 500, 5)

	// SELECT K, SUM(V) FROM Fact WHERE K >= 3 GROUP BY K ORDER BY sum DESC
	q := Limit(SortBy(
		Aggregate(Filter(Scan(tbl), IntCmp("K", Ge, 3)),
			Sum, "K", "total", Col("V")),
		"total", true), 2)
	out, err := db.RunQuery(context.Background(), QueryRun{Plan: q})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Rows) != 2 {
		t.Fatalf("rows = %d, want 2 (groups 3 and 4)", len(out.Rows))
	}
	// Group 4 sums higher than group 3 (V = ID, same count per group).
	if out.Rows[0].Int64(0) != 4 || out.Rows[1].Int64(0) != 3 {
		t.Fatalf("ordering wrong: %v", out.Rows)
	}
	var want3, want4 float64
	for i := 0; i < 500; i++ {
		switch i % 5 {
		case 3:
			want3 += float64(i)
		case 4:
			want4 += float64(i)
		}
	}
	if out.Rows[0].Float64(1) != want4 || out.Rows[1].Float64(1) != want3 {
		t.Fatalf("sums wrong: %v (want %g, %g)", out.Rows, want4, want3)
	}
}

func TestPrepareQueryStreamingCursor(t *testing.T) {
	db := Open()
	defer db.Close()
	tbl := loadQueryTable(t, db, 100, 4)
	prep, err := db.PrepareQuery(Filter(Scan(tbl), IntCmp("K", Eq, 1)))
	if err != nil {
		t.Fatal(err)
	}
	cur, err := prep.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		tup, ok := cur.Next()
		if !ok {
			break
		}
		if tup.Int64(1) != 1 {
			t.Fatalf("filter leaked row %v", tup)
		}
		n++
	}
	cur.Close()
	if n != 25 {
		t.Fatalf("streamed %d rows, want 25", n)
	}
	if db.Manager().ActiveSnapshots() != 0 {
		t.Fatal("cursor Close leaked a snapshot pin")
	}
}

func TestSubmitQueryErrors(t *testing.T) {
	db := Open()
	tbl := loadQueryTable(t, db, 10, 2)

	// A broken plan fails synchronously at Prepare.
	if _, err := db.SubmitQuery(context.Background(), QueryRun{
		Plan: Filter(Scan(tbl), IntCmp("NoSuchCol", Eq, 0)),
	}); err == nil {
		t.Fatal("bad column must fail SubmitQuery synchronously")
	}

	db.Close()
	if _, err := db.SubmitQuery(context.Background(), QueryRun{Plan: Scan(tbl)}); err != ErrClosed {
		t.Fatalf("after Close: err = %v, want ErrClosed", err)
	}
}

// slowQuery is a plan whose opaque predicate sleeps per row, giving the
// supervision tests something to cancel and deadline against. Rows must
// comfortably exceed the cursor's context-check stride (256).
func slowQuery(tbl *Table, perRow time.Duration) *Plan {
	return Filter(Scan(tbl), TuplePred(func(Tuple) bool {
		time.Sleep(perRow)
		return true
	}))
}

func TestSubmitQueryDeadline(t *testing.T) {
	db := Open()
	defer db.Close()
	tbl := loadQueryTable(t, db, 600, 2)
	h, err := db.SubmitQuery(context.Background(), QueryRun{
		Plan:     slowQuery(tbl, 100*time.Microsecond),
		Deadline: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, werr := h.Wait(); !errors.Is(werr, ErrJobDeadline) {
		t.Fatalf("err = %v, want ErrJobDeadline", werr)
	}
}

func TestSubmitQueryCancel(t *testing.T) {
	db := Open()
	defer db.Close()
	tbl := loadQueryTable(t, db, 600, 2)
	h, err := db.SubmitQuery(context.Background(), QueryRun{
		Plan: slowQuery(tbl, 100*time.Microsecond),
	})
	if err != nil {
		t.Fatal(err)
	}
	h.Cancel()
	if _, werr := h.Wait(); !errors.Is(werr, ErrJobCancelled) {
		t.Fatalf("err = %v, want ErrJobCancelled", werr)
	}
}

// queryFlakySub panics on every execution until the shared gate flips — the
// retry test's injected transient fault.
type queryFlakySub struct {
	tbl  *Table
	row  RowID
	fail bool
	rec  *storage.IterativeRecord
	buf  Payload
}

func (s *queryFlakySub) Begin(ctx *Ctx) {
	s.rec = s.tbl.IterRecord(s.row)
	s.buf = make(Payload, 2)
	s.buf.SetInt64(0, int64(s.row))
}

func (s *queryFlakySub) Execute(ctx *Ctx) {
	if s.fail {
		panic("transient fault")
	}
	s.buf.SetFloat64(1, 42)
	ctx.Write(s.rec, s.buf)
}

func (s *queryFlakySub) Validate(ctx *Ctx) Action { return Done }

// TestSubmitQueryRetriesIterate: a query whose iterate job panics on the
// first attempt must be retried under the policy (the failed attempt's
// uber-transaction aborted, so the rerun starts clean) and succeed on the
// second.
func TestSubmitQueryRetriesIterate(t *testing.T) {
	db := Open()
	defer db.Close()
	tbl, err := db.CreateTable("State",
		Column{Name: "ID", Type: Int64},
		Column{Name: "X", Type: Float64})
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]Payload, 8)
	for i := range rows {
		p := tbl.Schema().NewPayload()
		p.SetInt64(0, int64(i))
		rows[i] = p
	}
	if err := db.BulkLoad(tbl, rows); err != nil {
		t.Fatal(err)
	}

	builds := 0
	spec := IterateSpec{
		Table:     tbl,
		Isolation: MLOptions{Level: Asynchronous},
		Build: func(ts Timestamp) ([]itx.Sub, func(int) int, error) {
			// Each retry attempt rebuilds from scratch; only the first
			// attempt's subs carry the injected fault.
			builds++
			subs := make([]itx.Sub, tbl.NumRows())
			for i := range subs {
				subs[i] = &queryFlakySub{tbl: tbl, row: RowID(i), fail: builds == 1}
			}
			return subs, nil, nil
		},
	}
	h, err := db.SubmitQuery(context.Background(), QueryRun{
		Plan:  Iterate(spec),
		Retry: &RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	out, werr := h.Wait()
	if werr != nil {
		t.Fatalf("retried query failed: %v", werr)
	}
	if h.Attempts() != 2 {
		t.Fatalf("attempts = %d, want 2", h.Attempts())
	}
	if len(out.Rows) != 8 {
		t.Fatalf("rows = %d, want 8", len(out.Rows))
	}
	for _, r := range out.Rows {
		if r.Float64(1) != 42 {
			t.Fatalf("iterate output not converged state: %v", r)
		}
	}
	if len(h.IterStats()) != 1 || h.IterStats()[0].CommitTS == 0 {
		t.Fatalf("iterate stats missing: %+v", h.IterStats())
	}
}

// TestPageRankViaIterateMatchesDirectExactly is the tentpole acceptance
// check: PageRank run through the plan layer's iterate node must produce
// bit-identical ranks to the same configuration submitted directly as an
// ML job. Both paths share pagerank.Normalized + pagerank.BuildSubs, run
// under the synchronous level (deterministic bulk-synchronous rounds with
// global convergence), and read the converged table at the job's own
// commit timestamp.
func TestPageRankViaIterateMatchesDirectExactly(t *testing.T) {
	g := graph.ErdosRenyi(300, 1800, 7)
	pool, err := exec.NewPool(exec.Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	cfg := pagerank.Config{
		Pool:      pool,
		Isolation: MLOptions{Level: Synchronous},
	}

	// Path 1: direct submission (pagerank.Run drives the uber-transaction).
	dbA := Open(WithWorkers(4))
	defer dbA.Close()
	nodeA, edgeA, err := pagerank.LoadTables(dbA.Manager(), g)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := pagerank.Run(dbA.Manager(), nodeA, edgeA, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Path 2: the same job as an iterate plan node, composed with a
	// relational consumer (sort by rank, keep all rows) so the result
	// flows through the full operator path.
	dbB := Open(WithWorkers(4))
	defer dbB.Close()
	nodeB, edgeB, err := pagerank.LoadTables(dbB.Manager(), g)
	if err != nil {
		t.Fatal(err)
	}
	ncfg := cfg.Normalized()
	q := Iterate(IterateSpec{
		Table:     nodeB,
		Versions:  ncfg.Versions,
		Isolation: ncfg.Isolation,
		Exec:      ncfg.Exec,
		Build: func(ts Timestamp) ([]itx.Sub, func(int) int, error) {
			return pagerank.BuildSubs(nodeB, edgeB, ts, ncfg)
		},
	})
	out, err := db4mlRunPlanOnPool(t, dbB, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Rows) != g.NumNodes() {
		t.Fatalf("iterate emitted %d rows, want %d", len(out.Rows), g.NumNodes())
	}
	for _, r := range out.Rows {
		v := r.Int64(pagerank.ColNodeID)
		if got, want := r.Float64(pagerank.ColPR), direct.Ranks[v]; got != want {
			t.Fatalf("node %d: plan-path PR %.17g != direct PR %.17g", v, got, want)
		}
	}

	// The committed table states agree too: a plain snapshot read after
	// both runs sees identical ranks.
	if dbA.Stable() == 0 || dbB.Stable() == 0 {
		t.Fatal("commits not published")
	}
}

// db4mlRunPlanOnPool runs q on db's shared pool via the supervised path.
func db4mlRunPlanOnPool(t *testing.T, db *DB, q *Plan) (*Relation, error) {
	t.Helper()
	return db.RunQuery(context.Background(), QueryRun{Plan: q})
}

// TestIterateComposesWithRelationalOps: top-3 PageRank nodes as ONE plan —
// the paper-motivating composition of iterative ML and relational
// operators in a single execution path.
func TestIterateComposesWithRelationalOps(t *testing.T) {
	g := graph.BarabasiAlbert(200, 3, 11)
	db := Open(WithWorkers(4))
	defer db.Close()
	node, edge, err := pagerank.LoadTables(db.Manager(), g)
	if err != nil {
		t.Fatal(err)
	}
	cfg := pagerank.Config{
		Isolation: isolation.Options{Level: Synchronous},
	}.Normalized()
	q := Limit(SortBy(Iterate(IterateSpec{
		Table:     node,
		Isolation: cfg.Isolation,
		Exec:      cfg.Exec,
		Build: func(ts Timestamp) ([]itx.Sub, func(int) int, error) {
			return pagerank.BuildSubs(node, edge, ts, cfg)
		},
	}), "PR", true), 3)
	out, err := db.RunQuery(context.Background(), QueryRun{Plan: q})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Rows) != 3 {
		t.Fatalf("top-k rows = %d, want 3", len(out.Rows))
	}
	if out.Rows[0].Float64(1) < out.Rows[1].Float64(1) ||
		out.Rows[1].Float64(1) < out.Rows[2].Float64(1) {
		t.Fatalf("top-k not sorted: %v", out.Rows)
	}
	// Cross-check against an independent full read of the converged table.
	all, err := db.RunQuery(context.Background(), QueryRun{Plan: Scan(node)})
	if err != nil {
		t.Fatal(err)
	}
	var max float64
	for _, r := range all.Rows {
		if pr := r.Float64(1); pr > max {
			max = pr
		}
	}
	if out.Rows[0].Float64(1) != max {
		t.Fatalf("top-1 %g != table max %g", out.Rows[0].Float64(1), max)
	}
}
