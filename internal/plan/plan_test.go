package plan

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"db4ml/internal/relational"
	"db4ml/internal/storage"
	"db4ml/internal/table"
	"db4ml/internal/txn"
)

// loadFact publishes a (ID, K, V) fact table: ID = row id, K = ID % groups,
// V = float64(ID).
func loadFact(t *testing.T, m *txn.Manager, name string, rows, groups int) *table.Table {
	t.Helper()
	tbl := table.New(name, table.MustSchema(
		table.Column{Name: "ID", Type: table.Int64},
		table.Column{Name: "K", Type: table.Int64},
		table.Column{Name: "V", Type: table.Float64},
	))
	m.PublishAt(func(ts storage.Timestamp) {
		p := tbl.Schema().NewPayload()
		for i := 0; i < rows; i++ {
			p.SetInt64(0, int64(i))
			p.SetInt64(1, int64(i%groups))
			p.SetFloat64(2, float64(i))
			if _, err := tbl.Append(ts, p); err != nil {
				t.Fatal(err)
			}
		}
	})
	return tbl
}

func mustCollect(t *testing.T, p *Node, env Env) (*relational.Relation, []OpStat) {
	t.Helper()
	prep, err := Prepare(p, env)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := prep.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	out := &relational.Relation{Cols: prep.Columns()}
	for {
		tup, ok := cur.Next()
		if !ok {
			break
		}
		out.Rows = append(out.Rows, tup.Clone())
	}
	if err := cur.Err(); err != nil {
		t.Fatal(err)
	}
	cur.Close()
	return out, cur.Stats()
}

func sameRelation(t *testing.T, got, want *relational.Relation, label string) {
	t.Helper()
	if len(got.Cols) != len(want.Cols) {
		t.Fatalf("%s: cols %v vs %v", label, got.Cols, want.Cols)
	}
	for i := range got.Cols {
		if got.Cols[i] != want.Cols[i] {
			t.Fatalf("%s: cols %v vs %v", label, got.Cols, want.Cols)
		}
	}
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("%s: %d rows vs %d rows", label, len(got.Rows), len(want.Rows))
	}
	for i := range got.Rows {
		if len(got.Rows[i]) != len(want.Rows[i]) {
			t.Fatalf("%s: row %d width %d vs %d", label, i, len(got.Rows[i]), len(want.Rows[i]))
		}
		for j := range got.Rows[i] {
			if got.Rows[i][j] != want.Rows[i][j] {
				t.Fatalf("%s: row %d col %d: %d vs %d (rows %v vs %v)",
					label, i, j, got.Rows[i][j], want.Rows[i][j], got.Rows[i], want.Rows[i])
			}
		}
	}
}

func findOp(stats []OpStat, name string) (OpStat, bool) {
	for _, s := range stats {
		if s.Op == name {
			return s, true
		}
	}
	return OpStat{}, false
}

// TestPushdownEquivalenceAndScanReduction: a selective filter over a scan
// must produce identical output with and without pushdown, and with
// pushdown the scan operator itself must emit only the matching rows —
// the non-matching versions are rejected inside the storage layer.
func TestPushdownEquivalenceAndScanReduction(t *testing.T) {
	m := txn.NewManager()
	tbl := loadFact(t, m, "F", 1000, 10)
	q := Filter(Scan(tbl), IntCmp("K", Eq, 3))

	pushed, pstats := mustCollect(t, q, Env{Mgr: m})
	naive, nstats := mustCollect(t, q, Env{Mgr: m, NoPushdown: true, NoPresize: true})
	sameRelation(t, pushed, naive, "pushdown vs naive")
	if len(pushed.Rows) != 100 {
		t.Fatalf("selected %d rows, want 100", len(pushed.Rows))
	}

	ps, ok := findOp(pstats, "scan(F)+pushdown")
	if !ok {
		t.Fatalf("no pushed scan in stats: %+v", pstats)
	}
	if ps.RowsOut != 100 {
		t.Fatalf("pushed scan emitted %d rows, want 100 (filter not pushed into storage)", ps.RowsOut)
	}
	ns, ok := findOp(nstats, "scan(F)")
	if !ok {
		t.Fatalf("no naive scan in stats: %+v", nstats)
	}
	if ns.RowsOut != 1000 {
		t.Fatalf("naive scan emitted %d rows, want 1000", ns.RowsOut)
	}
}

// TestRowRangePushdown: a RowRange restricts the scanned row ids inside
// the storage layer; one that cannot reach a scan is a Prepare error.
func TestRowRangePushdown(t *testing.T) {
	m := txn.NewManager()
	tbl := loadFact(t, m, "F", 100, 10)

	out, stats := mustCollect(t, Filter(Scan(tbl), RowRange(10, 20)), Env{Mgr: m})
	if len(out.Rows) != 10 {
		t.Fatalf("row-range selected %d rows, want 10", len(out.Rows))
	}
	for i, r := range out.Rows {
		if r.Int64(0) != int64(10+i) {
			t.Fatalf("row %d: ID = %d, want %d", i, r.Int64(0), 10+i)
		}
	}
	ps, ok := findOp(stats, "scan(F)+pushdown")
	if !ok || ps.RowsOut != 10 {
		t.Fatalf("range scan stats wrong: %+v", stats)
	}

	// RowRange above an aggregate has no scan to land on.
	agg := Aggregate(Scan(tbl), relational.Sum, "K", "s", Col("V"))
	if _, err := Prepare(Filter(agg, RowRange(0, 5)), Env{Mgr: m}); err == nil {
		t.Fatal("RowRange above an aggregate must fail Prepare")
	}
}

// TestJoinPushdown: conjuncts over a join split by column ownership and
// push into both scans for an inner join; for a left-outer join the
// build-side conjunct must stay above the join (null-side semantics).
// Both rewrites must be result-identical to the unpushed plan.
func TestJoinPushdown(t *testing.T) {
	m := txn.NewManager()
	fact := loadFact(t, m, "F", 400, 8)
	dim := table.New("D", table.MustSchema(
		table.Column{Name: "DK", Type: table.Int64},
		table.Column{Name: "W", Type: table.Float64},
	))
	m.PublishAt(func(ts storage.Timestamp) {
		p := dim.Schema().NewPayload()
		for k := 0; k < 6; k++ { // keys 6,7 unmatched on the dim side
			p.SetInt64(0, int64(k))
			p.SetFloat64(1, float64(100+k))
			if _, err := dim.Append(ts, p); err != nil {
				t.Fatal(err)
			}
		}
	})

	inner := Filter(
		Join(Scan(fact), Scan(dim), "K", "DK"),
		FloatCmp("V", Lt, 200), // probe side
		FloatCmp("W", Ge, 102), // build side
	)
	got, stats := mustCollect(t, inner, Env{Mgr: m})
	want, _ := mustCollect(t, inner, Env{Mgr: m, NoPushdown: true, NoPresize: true})
	sameRelation(t, got, want, "inner-join pushdown")
	if len(got.Rows) == 0 {
		t.Fatal("inner-join query selected nothing; fixture is broken")
	}
	// Both sides' scans must carry hints.
	if _, ok := findOp(stats, "scan(F)+pushdown"); !ok {
		t.Fatalf("probe-side filter not pushed: %+v", stats)
	}
	if _, ok := findOp(stats, "scan(D)+pushdown"); !ok {
		t.Fatalf("build-side filter not pushed: %+v", stats)
	}

	outer := Filter(
		LeftJoin(Scan(fact), Scan(dim), "K", "DK"),
		FloatCmp("W", Ge, 102), // build side: must NOT push below a left join
	)
	ogot, ostats := mustCollect(t, outer, Env{Mgr: m})
	owant, _ := mustCollect(t, outer, Env{Mgr: m, NoPushdown: true, NoPresize: true})
	sameRelation(t, ogot, owant, "left-outer pushdown")
	if _, ok := findOp(ostats, "scan(D)+pushdown"); ok {
		t.Fatalf("build-side predicate pushed below a left-outer join: %+v", ostats)
	}
}

// TestCursorCancellation: a cancelled context stops the stream at the next
// stride check and surfaces through Err.
func TestCursorCancellation(t *testing.T) {
	m := txn.NewManager()
	tbl := loadFact(t, m, "F", 64, 4)
	prep, err := Prepare(Scan(tbl), Env{Mgr: m})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cur, err := prep.Execute(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	cancel()
	if _, ok := cur.Next(); ok {
		t.Fatal("Next succeeded after cancellation")
	}
	if cur.Err() != context.Canceled {
		t.Fatalf("Err = %v, want context.Canceled", cur.Err())
	}
}

// TestCancelInsidePipelineBreaker: a context cancelled while an aggregate
// drains its input ends the query with context.Canceled, never with a
// short result and a nil error, and the drain stops within a check stride
// instead of reading the whole table.
func TestCancelInsidePipelineBreaker(t *testing.T) {
	const rows = 10000
	m := txn.NewManager()
	tbl := loadFact(t, m, "F", rows, 4)
	run := func(root func(cancelOnce Pred) *Node) (int, []OpStat, error) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		prep, err := Prepare(root(TuplePred(func(relational.Tuple) bool { cancel(); return true })), Env{Mgr: m})
		if err != nil {
			t.Fatal(err)
		}
		cur, err := prep.Execute(ctx)
		if err != nil {
			return 0, nil, err
		}
		n := 0
		for _, ok := cur.Next(); ok; _, ok = cur.Next() {
			n++
		}
		cur.Close()
		return n, cur.Stats(), cur.Err()
	}

	// The filter cancels while the aggregate drains the scan.
	n, stats, err := run(func(p Pred) *Node {
		return Aggregate(Filter(Scan(tbl), p), relational.Count, "K", "n", Scalar{})
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("aggregate over a cancelling filter: %d rows, Err = %v, want context.Canceled", n, err)
	}
	if scan, ok := findOp(stats, "scan(F)"); !ok || scan.RowsOut > 2*ctxCheckStride {
		t.Fatalf("the aggregate drained %d of %d rows after the cancel (stats %+v)", scan.RowsOut, rows, stats)
	}

	// The filter above the aggregate cancels after the cursor's first check
	// and the result is shorter than one stride.
	n, _, err = run(func(p Pred) *Node {
		return Filter(Aggregate(Scan(tbl), relational.Count, "K", "n", Scalar{}), p)
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelling filter over an aggregate: %d rows, Err = %v, want context.Canceled", n, err)
	}
}

// TestPreparedReexecute: one Prepared may Execute repeatedly; operator
// state (counters, hash tables, pins) must fully reset between runs.
func TestPreparedReexecute(t *testing.T) {
	m := txn.NewManager()
	tbl := loadFact(t, m, "F", 200, 5)
	prep, err := Prepare(
		Aggregate(Filter(Scan(tbl), IntCmp("K", Ne, 0)), relational.Count, "K", "n", Scalar{}),
		Env{Mgr: m})
	if err != nil {
		t.Fatal(err)
	}
	var first *relational.Relation
	for run := 0; run < 3; run++ {
		out, err := prep.Collect(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = out
			if len(out.Rows) != 4 {
				t.Fatalf("groups = %d, want 4", len(out.Rows))
			}
			continue
		}
		sameRelation(t, out, first, "re-execute")
	}
	if m.ActiveSnapshots() != 0 {
		t.Fatalf("%d snapshot pins leaked across executions", m.ActiveSnapshots())
	}
}

// refStage is the hand-materialized reference: it applies one relational
// operator to a fully materialized input and materializes the output —
// exactly the pre-plan MADlib style the streaming executor replaces.
func refStage(in *relational.Relation, op func(relational.Op) relational.Op) *relational.Relation {
	return relational.Collect(op(relational.NewScan(in)))
}

func colIdx(cols []string, name string) int {
	for i, c := range cols {
		if c == name {
			return i
		}
	}
	return -1
}

// TestStreamedMatchesMaterializedRandomized is the property test: random
// plans over random data must produce bit-identical results three ways —
// streamed with pushdown+presize, streamed with both disabled, and the
// stage-by-stage materialized reference pipeline.
func TestStreamedMatchesMaterializedRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(0xdb4))
	for trial := 0; trial < 60; trial++ {
		m := txn.NewManager()
		rows := 20 + rng.Intn(300)
		groups := 1 + rng.Intn(12)
		tbl := loadFact(t, m, "F", rows, groups)

		// Materialize the base table for the reference pipeline.
		base := relational.Collect(relational.NewTableScan(m, tbl, m.Stable()))
		ref := base
		q := Scan(tbl)

		// Random filter(s).
		nf := rng.Intn(3)
		for f := 0; f < nf; f++ {
			switch rng.Intn(4) {
			case 0:
				k := int64(rng.Intn(groups + 2))
				op := CmpOp(rng.Intn(6))
				q = Filter(q, IntCmp("K", op, k))
				ki := colIdx(ref.Cols, "K")
				test := cmpInt(op, k)
				ref = refStage(ref, func(in relational.Op) relational.Op {
					return relational.NewFilter(in, func(tp relational.Tuple) bool { return test(tp[ki]) })
				})
			case 1:
				v := float64(rng.Intn(rows))
				op := CmpOp(rng.Intn(6))
				q = Filter(q, FloatCmp("V", op, v))
				vi := colIdx(ref.Cols, "V")
				test := cmpFloat(op, v)
				ref = refStage(ref, func(in relational.Op) relational.Op {
					return relational.NewFilter(in, func(tp relational.Tuple) bool { return test(tp[vi]) })
				})
			case 2:
				lo := table.RowID(rng.Intn(rows))
				hi := lo + table.RowID(rng.Intn(rows-int(lo)+1))
				q = Filter(q, RowRange(lo, hi))
				ii := colIdx(ref.Cols, "ID")
				ref = refStage(ref, func(in relational.Op) relational.Op {
					return relational.NewFilter(in, func(tp relational.Tuple) bool {
						id := tp.Int64(ii)
						return id >= int64(lo) && (hi == 0 || id < int64(hi))
					})
				})
			default:
				// Opaque tuple predicate: never pushed.
				mod := int64(2 + rng.Intn(3))
				ii := colIdx(ref.Cols, "ID")
				pred := func(tp relational.Tuple) bool { return tp.Int64(ii)%mod != 0 }
				q = Filter(q, TuplePred(pred))
				ref = refStage(ref, func(in relational.Op) relational.Op {
					return relational.NewFilter(in, pred)
				})
			}
		}

		// Random join against a static dimension relation.
		if rng.Intn(2) == 0 {
			dim := &relational.Relation{Cols: []string{"DK", "W"}}
			nd := rng.Intn(groups + 3)
			for k := 0; k < nd; k++ {
				tp := make(relational.Tuple, 2)
				tp.SetInt64(0, int64(rng.Intn(groups+2)))
				tp.SetFloat64(1, float64(rng.Intn(50)))
				dim.Rows = append(dim.Rows, tp)
			}
			outerJoin := rng.Intn(2) == 0
			ki := colIdx(ref.Cols, "K")
			probeKey := func(tp relational.Tuple) int64 { return tp.Int64(ki) }
			buildKey := func(tp relational.Tuple) int64 { return tp.Int64(0) }
			if outerJoin {
				q = LeftJoin(q, Static(dim), "K", "DK")
			} else {
				q = Join(q, Static(dim), "K", "DK")
			}
			refIn := ref
			joined := &relational.Relation{Cols: append(append([]string(nil), refIn.Cols...), dim.Cols...)}
			var jop relational.Op
			if outerJoin {
				jop = relational.NewHashLeftJoin(relational.NewScan(refIn), relational.NewScan(dim), probeKey, buildKey)
			} else {
				jop = relational.NewHashJoin(relational.NewScan(refIn), relational.NewScan(dim), probeKey, buildKey)
			}
			joined.Rows = relational.Collect(jop).Rows
			ref = joined
		}

		// Random tail: aggregate, or project, or sort(+limit), or nothing.
		switch rng.Intn(4) {
		case 0:
			q = Aggregate(q, relational.Sum, "K", "s", Mul(Col("V"), Const(0.5)))
			ki := colIdx(ref.Cols, "K")
			vi := colIdx(ref.Cols, "V")
			ref = refStage(ref, func(in relational.Op) relational.Op {
				return relational.NewHashAggregate(in, relational.Sum, "K", "s",
					func(tp relational.Tuple) int64 { return tp.Int64(ki) },
					func(tp relational.Tuple) float64 { return tp.Float64(vi) * 0.5 })
			})
		case 1:
			q = Project(q, []string{"ID", "half"}, Col("ID"), Div(Col("V"), Const(2)))
			ii := colIdx(ref.Cols, "ID")
			vi := colIdx(ref.Cols, "V")
			ref = refStage(ref, func(in relational.Op) relational.Op {
				return relational.NewProject(in, []string{"ID", "half"},
					[]func(relational.Tuple) uint64{
						func(tp relational.Tuple) uint64 { return tp[ii] },
						func(tp relational.Tuple) uint64 {
							w := make(relational.Tuple, 1)
							w.SetFloat64(0, tp.Float64(vi)/2)
							return w[0]
						},
					})
			})
		case 2:
			desc := rng.Intn(2) == 0
			lim := 1 + rng.Intn(20)
			q = Limit(SortBy(q, "V", desc), lim)
			vi := colIdx(ref.Cols, "V")
			ref = refStage(ref, func(in relational.Op) relational.Op {
				return relational.NewLimit(relational.NewSortByFloat(in, vi, desc), lim)
			})
		}

		got, _ := mustCollect(t, q, Env{Mgr: m})
		naive, _ := mustCollect(t, q, Env{Mgr: m, NoPushdown: true, NoPresize: true})
		sameRelation(t, got, naive, "trial pushdown-vs-naive")
		if len(got.Rows) != len(ref.Rows) {
			t.Fatalf("trial %d: streamed %d rows, reference %d", trial, len(got.Rows), len(ref.Rows))
		}
		for i := range got.Rows {
			for j := range got.Rows[i] {
				if got.Rows[i][j] != ref.Rows[i][j] {
					t.Fatalf("trial %d row %d col %d: streamed %d, reference %d",
						trial, i, j, got.Rows[i][j], ref.Rows[i][j])
				}
			}
		}
		if m.ActiveSnapshots() != 0 {
			t.Fatalf("trial %d leaked %d snapshot pins", trial, m.ActiveSnapshots())
		}
	}
}
