package db4ml

import (
	"context"
	"errors"
	"math"
	"runtime"
	"testing"
	"time"

	"db4ml/internal/exec"
	"db4ml/internal/graph"
	"db4ml/internal/metrics"
	"db4ml/internal/ml/pagerank"
	"db4ml/internal/ml/sgd"
	"db4ml/internal/storage"
	"db4ml/internal/svm"
	"db4ml/internal/txn"
)

// openShardedCounters mirrors openWithCounters on a sharded database.
func openShardedCounters(t *testing.T, shards, n int, opts ...Option) (*DB, *Table) {
	t.Helper()
	db := Open(append([]Option{WithShards(shards), WithShardScheme(ShardRoundRobin)}, opts...)...)
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

// TestShardedQuickstart drives the README's sharded session end to end:
// open N kernels, create and load a sharded table (rows spread round-robin
// across shards), run an ML job as ONE distributed uber-transaction whose
// sub-transactions land on the shards owning their rows, and read the
// atomically published result through cross-shard snapshot reads.
func TestShardedQuickstart(t *testing.T) {
	const n, target = 24, 5.0
	db, tbl := openShardedCounters(t, 3, n)
	defer db.Close()

	st := db.ShardedTable("Counter")
	if st == nil || db.Table("Counter") != tbl || st.View() != tbl {
		t.Fatal("sharded table registry wrong")
	}
	spread := map[int]int{}
	for i := 0; i < n; i++ {
		spread[st.ShardOf(RowID(i))]++
	}
	if len(spread) != 3 {
		t.Fatalf("rows landed on %d of 3 shards", len(spread))
	}

	subs := make([]IterativeTransaction, n)
	for i := range subs {
		subs[i] = &incSub{tbl: tbl, row: RowID(i), target: target}
	}
	obs := NewObserver()
	h, err := db.SubmitML(context.Background(), MLRun{
		Isolation: MLOptions{Level: Asynchronous},
		Label:     "quickstart",
		Attach:    []Attachment{{Table: tbl}},
		Subs:      subs,
		Observer:  obs,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Wait(); err != nil {
		t.Fatal(err)
	}
	stats := h.ShardStats()
	if len(stats) != 3 {
		t.Fatalf("got stats for %d shards, want 3", len(stats))
	}
	var commits uint64
	for s, ss := range stats {
		if ss.Commits == 0 {
			t.Fatalf("shard %d ran no iterations", s)
		}
		commits += ss.Commits
	}
	if commits < n*uint64(target) {
		t.Fatalf("total commits %d < %d", commits, n*int(target))
	}
	ts := h.CommitTS()
	if ts == 0 {
		t.Fatal("committed run reported ts 0")
	}
	if snaps := h.ShardSnapshots(); len(snaps) != 3 {
		t.Fatalf("ShardSnapshots returned %d entries", len(snaps))
	} else if len(h.ShardObservers()) != 3 || h.ShardObservers()[0] != obs {
		t.Fatal("shard 0's observer is not the caller's")
	}

	// The result is visible on every shard through per-shard pinned
	// snapshots, and the cross-shard stable bound has advanced past it.
	if db.Stable() < ts {
		t.Fatalf("Stable %d < commit ts %d", db.Stable(), ts)
	}
	tx := db.Begin()
	defer tx.Abort()
	for i := 0; i < n; i++ {
		p, ok := tx.Read(tbl, RowID(i))
		if !ok || p.Float64(1) != target {
			t.Fatalf("row %d = (%v, %v), want %v", i, p, ok, target)
		}
	}
	// The scatter-gather query path agrees: every row passes the at-target
	// filter.
	rel, err := db.RunQuery(context.Background(), QueryRun{
		Plan: Filter(Scan(tbl), FloatCmp("Value", Ge, target)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rel.Rows) != n {
		t.Fatalf("scatter-gather saw %d rows at target, want %d", len(rel.Rows), n)
	}
}

// TestShardedRunMLDegenerateErrors pins the facade's error surface: no
// attachments, foreign tables, and out-of-range placement all fail at
// submission with a released admission slot (the follow-up run must not
// be blocked).
func TestShardedRunMLDegenerateErrors(t *testing.T) {
	db, tbl := openShardedCounters(t, 2, 4, WithMaxInflight(1))
	defer db.Close()

	if _, err := db.RunML(MLRun{Isolation: MLOptions{Level: Asynchronous}}); err == nil {
		t.Fatal("run without attachments accepted")
	}
	foreign, _ := Open().CreateTable("X", Column{Name: "a", Type: Int64})
	if _, err := db.RunML(MLRun{
		Isolation: MLOptions{Level: Asynchronous},
		Attach:    []Attachment{{Table: foreign}},
		Subs:      []IterativeTransaction{&incSub{tbl: foreign, row: 0, target: 1}},
	}); err == nil {
		t.Fatal("foreign table accepted")
	}
	if _, err := db.RunML(MLRun{
		Isolation: MLOptions{Level: Asynchronous},
		Attach:    []Attachment{{Table: tbl}},
		Subs:      []IterativeTransaction{&incSub{tbl: tbl, row: 0, target: 1}},
		ShardOf:   func(int) int { return 99 },
	}); err == nil {
		t.Fatal("out-of-range placement accepted")
	}
	// Plans that cannot scatter are refused by SubmitQuery itself, not by
	// Wait: no handle, no admission slot.
	for name, p := range map[string]*Plan{
		"join":     Join(Scan(tbl), Scan(tbl), "ID", "ID"),
		"rowrange": Filter(Scan(tbl), RowRange(0, 2)),
	} {
		if h, err := db.SubmitQuery(context.Background(), QueryRun{Plan: p, Retry: &RetryPolicy{MaxAttempts: 3}}); err == nil || h != nil {
			t.Fatalf("un-scatterable %s query accepted at submission (handle %v, err %v)", name, h, err)
		}
	}
	// The gate slot was released by each failure: a well-formed run and a
	// well-formed query under WithMaxInflight(1) still get in.
	if _, err := db.RunML(MLRun{
		Isolation: MLOptions{Level: Asynchronous},
		Attach:    []Attachment{{Table: tbl}},
		Subs:      []IterativeTransaction{&incSub{tbl: tbl, row: 0, target: 1}},
	}); err != nil {
		t.Fatalf("well-formed run rejected after failed submissions: %v", err)
	}
	if _, err := db.RunQuery(context.Background(), QueryRun{Plan: Scan(tbl)}); err != nil {
		t.Fatalf("well-formed query rejected after failed submissions: %v", err)
	}
}

// nopRecorder is a RunRecorder that drops every event.
type nopRecorder struct{}

func (nopRecorder) ObserveRead(int, int, uint64, *storage.IterativeRecord, uint64, uint64) {}
func (nopRecorder) ObserveValidation(int, int, uint64, *storage.IterativeRecord, uint64, uint64, bool) {
}
func (nopRecorder) ObserveInstall(int, int, uint64, *storage.IterativeRecord, uint64) {}
func (nopRecorder) ObserveOutcome(int, int, uint64, Action, bool)                     {}
func (nopRecorder) RecordBarrier(uint64, int32)                                       {}
func (nopRecorder) RecordUberCommit(Timestamp)                                        {}
func (nopRecorder) RecordUberAbort()                                                  {}

// TestShardedSubmitMLRejectsRecorder: every shard's pool numbers its
// sub-transactions from zero, so one MLRun.Recorder shared by all shards
// would record distinct subs under one id. SubmitML refuses such a run
// before anything begins: no handle, the admission slot released, and no
// snapshot left pinned on any shard.
func TestShardedSubmitMLRejectsRecorder(t *testing.T) {
	const n = 8
	db, tbl := openShardedCounters(t, 2, n, WithMaxInflight(1))
	defer db.Close()
	subs := make([]IterativeTransaction, n)
	for i := range subs {
		subs[i] = &incSub{tbl: tbl, row: RowID(i), target: 1}
	}
	run := MLRun{
		Isolation: MLOptions{Level: Asynchronous},
		Attach:    []Attachment{{Table: tbl}},
		Subs:      subs,
		Recorder:  nopRecorder{},
	}
	if h, err := db.SubmitML(context.Background(), run); err == nil || h != nil {
		t.Fatalf("sharded run with a recorder accepted (handle %v, err %v)", h, err)
	}
	for s, m := range db.managers() {
		if pins := m.ActiveSnapshots(); pins != 0 {
			t.Fatalf("shard %d: %d snapshots pinned after the refused run", s, pins)
		}
	}
	// The slot was released: under WithMaxInflight(1) the same run without
	// a recorder still gets in.
	run.Recorder = nil
	if _, err := db.RunML(run); err != nil {
		t.Fatalf("run without a recorder rejected after the refused one: %v", err)
	}
}

// loadShardedGraph loads g into sharded Node and Edge tables the way
// pagerank.LoadTables loads single-kernel ones (same row order, same
// initial ranks, same indexes — so BuildSubs sees an identical world
// through the global views).
func loadShardedGraph(t *testing.T, db *DB, g *graph.Graph) (node, edge *Table) {
	t.Helper()
	var err error
	node, err = db.CreateTable("Node",
		Column{Name: "NodeID", Type: Int64},
		Column{Name: "PR", Type: Float64},
	)
	if err != nil {
		t.Fatal(err)
	}
	edge, err = db.CreateTable("Edge",
		Column{Name: "NID_From", Type: Int64},
		Column{Name: "NID_To", Type: Int64},
	)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumNodes()
	nodeRows := make([]Payload, n)
	for v := 0; v < n; v++ {
		p := node.Schema().NewPayload()
		p.SetInt64(pagerank.ColNodeID, int64(v))
		p.SetFloat64(pagerank.ColPR, 1/float64(n))
		nodeRows[v] = p
	}
	var edgeRows []Payload
	for v := int32(0); int(v) < n; v++ {
		for _, to := range g.OutNeighbors(v) {
			p := edge.Schema().NewPayload()
			p.SetInt64(0, int64(v))
			p.SetInt64(1, int64(to))
			edgeRows = append(edgeRows, p)
		}
	}
	if err := db.BulkLoad(node, nodeRows); err != nil {
		t.Fatal(err)
	}
	if err := db.BulkLoad(edge, edgeRows); err != nil {
		t.Fatal(err)
	}
	if err := node.CreateHashIndex("NodeID"); err != nil {
		t.Fatal(err)
	}
	if err := edge.CreateHashIndex("NID_To"); err != nil {
		t.Fatal(err)
	}
	return node, edge
}

// TestShardedPageRankMatchesSingleKernel is the distributed-correctness
// property test: the SAME PageRank sub-transactions (pagerank.BuildSubs,
// unchanged), placed across 1-, 2-, and 4-shard clusters by row ownership,
// must reproduce the single-kernel synchronous ranks BIT-EXACTLY. Under
// the synchronous level the coordinator ties every shard's barrier into
// one global rendezvous, so round r on any shard reads exactly round r-1
// everywhere — the same deterministic schedule as one kernel, even though
// under round-robin placement most neighbor reads cross shard boundaries.
func TestShardedPageRankMatchesSingleKernel(t *testing.T) {
	g := graph.ErdosRenyi(200, 1200, 11)
	pool, err := exec.NewPool(exec.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	cfg := pagerank.Config{Pool: pool, Isolation: MLOptions{Level: Synchronous}}

	single := Open(WithWorkers(4))
	defer single.Close()
	nodeA, edgeA, err := pagerank.LoadTables(single.Manager(), g)
	if err != nil {
		t.Fatal(err)
	}
	want, err := pagerank.Run(single.Manager(), nodeA, edgeA, cfg)
	if err != nil {
		t.Fatal(err)
	}

	for _, shards := range []int{1, 2, 4} {
		db := Open(WithShards(shards), WithShardScheme(ShardRoundRobin), WithWorkers(2))
		node, edge := loadShardedGraph(t, db, g)
		ncfg := cfg.Normalized()
		subs, _, err := pagerank.BuildSubs(node, edge, db.Stable(), ncfg)
		if err != nil {
			t.Fatal(err)
		}
		h, err := db.SubmitML(context.Background(), MLRun{
			Isolation:        ncfg.Isolation,
			ConvergeTogether: ncfg.Exec.ConvergeTogether,
			Label:            "pagerank",
			Attach:           []Attachment{{Table: node, Versions: ncfg.Versions}},
			Subs:             subs,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.Wait(); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		ts := h.CommitTS()
		for v := 0; v < g.NumNodes(); v++ {
			p, ok := node.Read(RowID(v), ts)
			if !ok {
				t.Fatalf("shards=%d: node %d unreadable at commit ts", shards, v)
			}
			if got := p.Float64(pagerank.ColPR); got != want.Ranks[v] {
				t.Fatalf("shards=%d node %d: distributed PR %.17g != single-kernel PR %.17g",
					shards, v, got, want.Ranks[v])
			}
		}
		db.Close()
	}
}

// TestPageRankSeesEdgeMutations: each job builds its in-adjacency from the
// Edge table at its own snapshot, so after an OLTP insert and a tombstone
// between two jobs the second job converges to the reference ranks of the
// new graph — on one kernel and on two shards. Sharded rows are created
// only through BulkLoad, so there the tombstone is a transaction on the
// owning shard and the insert a load.
func TestPageRankSeesEdgeMutations(t *testing.T) {
	g := graph.ErdosRenyi(200, 1200, 11)
	pool, err := exec.NewPool(exec.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	cfg := pagerank.Config{Pool: pool, Isolation: MLOptions{Level: Synchronous}, Epsilon: 1e-12}.Normalized()
	added := Payload{uint64(g.NumNodes() - 1), 7}
	const deleted = RowID(5)
	// wantFor is the reference on the graph the Edge table holds at ts.
	wantFor := func(edge *Table, ts Timestamp) []float64 {
		var edges []graph.Edge
		edge.Scan(ts, func(_ RowID, p Payload) bool {
			edges = append(edges, graph.Edge{From: int32(p.Int64(0)), To: int32(p.Int64(1))})
			return true
		})
		if len(edges) != int(g.NumEdges()) {
			t.Fatalf("edge table holds %d edges after one insert and one delete, want %d", len(edges), g.NumEdges())
		}
		g2, err := graph.FromEdges(g.NumNodes(), edges)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := graph.PageRankRef(g2, cfg.Damping, 1e-12, 1000)
		return want
	}
	check := func(label string, ranks, want []float64) {
		t.Helper()
		if d := metrics.MaxAbsDiff(want, ranks); d > 1e-9 {
			t.Fatalf("%s: max |PR - reference on the new graph| = %v", label, d)
		}
	}

	single := Open(WithWorkers(2))
	defer single.Close()
	node, edge, err := pagerank.LoadTables(single.Manager(), g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pagerank.Run(single.Manager(), node, edge, cfg); err != nil {
		t.Fatal(err)
	}
	tx := single.Begin()
	if err := tx.Insert(edge, added); err != nil {
		t.Fatal(err)
	}
	if err := tx.Delete(edge, deleted); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	res, err := pagerank.Run(single.Manager(), node, edge, cfg)
	if err != nil {
		t.Fatal(err)
	}
	check("one kernel", res.Ranks, wantFor(edge, res.CommitTS))

	db := Open(WithShards(2), WithShardScheme(ShardRoundRobin), WithWorkers(2))
	defer db.Close()
	node, edge = loadShardedGraph(t, db, g)
	run := func() []float64 {
		subs, _, err := pagerank.BuildSubs(node, edge, db.Stable(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		h, err := db.SubmitML(context.Background(), MLRun{
			Isolation:        cfg.Isolation,
			ConvergeTogether: cfg.Exec.ConvergeTogether,
			Attach:           []Attachment{{Table: node}},
			Subs:             subs,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.Wait(); err != nil {
			t.Fatal(err)
		}
		ranks := make([]float64, g.NumNodes())
		for v := range ranks {
			p, ok := node.Read(RowID(v), h.CommitTS())
			if !ok {
				t.Fatalf("node %d unreadable at commit ts", v)
			}
			ranks[v] = p.Float64(pagerank.ColPR)
		}
		return ranks
	}
	run()
	st := db.ShardedTable("Edge")
	s, local, ok := st.Locate(deleted)
	if !ok {
		t.Fatalf("edge row %d has no owning shard", deleted)
	}
	stx := db.Cluster().Kernel(s).Mgr().Begin()
	if err := stx.Delete(st.Local(s), local); err != nil {
		t.Fatal(err)
	}
	if err := stx.Commit(); err != nil {
		t.Fatal(err)
	}
	// The load publishes on every shard after the delete committed, which
	// brings the cross-shard stable snapshot past both.
	if err := db.BulkLoad(edge, []Payload{added}); err != nil {
		t.Fatal(err)
	}
	want := wantFor(edge, db.Stable())
	check("two shards", run(), want)
}

// TestShardedPageRankBoundedStaleness: under bounded staleness the
// distributed run is not bit-deterministic, but it must still converge to
// the true ranks within the same tolerance the single-kernel bounded test
// demands — sharding may not widen the staleness window (the cross-shard
// checker proves the bound holds; this proves the numerics land).
func TestShardedPageRankBoundedStaleness(t *testing.T) {
	g := graph.BarabasiAlbert(400, 6, 41)
	want, _ := graph.PageRankRef(g, 0.85, 1e-10, 300)

	db := Open(WithShards(2), WithShardScheme(ShardRoundRobin), WithWorkers(2))
	defer db.Close()
	node, edge := loadShardedGraph(t, db, g)
	ncfg := pagerank.Config{
		Isolation: MLOptions{Level: BoundedStaleness, Staleness: 10},
		Epsilon:   1e-10,
	}.Normalized()
	subs, _, err := pagerank.BuildSubs(node, edge, db.Stable(), ncfg)
	if err != nil {
		t.Fatal(err)
	}
	h, err := db.SubmitML(context.Background(), MLRun{
		Isolation: ncfg.Isolation,
		BatchSize: 32,
		// On a single-CPU host the two pools' workers are co-scheduled in
		// long slices; yielding each iteration restores the fine-grained
		// cross-shard interleaving physical parallelism would provide (a
		// shard starved of CPU stops publishing, and per-sub convergence
		// against its frozen rows retires early — the limitation
		// exec/converge_test.go documents for per-node retirement).
		IterationHook: func(int) { runtime.Gosched() },
		Attach:        []Attachment{{Table: node, Versions: ncfg.Versions}},
		Subs:          subs,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Wait(); err != nil {
		t.Fatal(err)
	}
	got := make([]float64, g.NumNodes())
	for v := range got {
		p, ok := node.Read(RowID(v), h.CommitTS())
		if !ok {
			t.Fatalf("node %d unreadable", v)
		}
		got[v] = p.Float64(pagerank.ColPR)
	}
	// The single-kernel bounded test's bar: small deviations from the exact
	// fixpoint are expected, the ranking must still agree almost everywhere.
	if acc := metrics.PairwiseAccuracy(want, got, 0, 1); acc < 0.98 {
		t.Fatalf("distributed bounded-staleness pairwise accuracy = %v", acc)
	}
}

// loadShardedSGD assembles an sgd.Tables over sharded parameter and sample
// tables, shuffled exactly like sgd.LoadTables so the sub bodies see an
// identical world.
func loadShardedSGD(t *testing.T, db *DB, train []svm.Sample, features int, seed int64) *sgd.Tables {
	t.Helper()
	shuffled := append([]svm.Sample(nil), train...)
	svm.Shuffle(shuffled, seed)
	params, err := db.CreateTable("GlobalParameter",
		Column{Name: "ParamID", Type: Int64},
		Column{Name: "Value", Type: Float64},
	)
	if err != nil {
		t.Fatal(err)
	}
	samples, err := db.CreateTable("Sample",
		Column{Name: "RandID", Type: Int64},
		Column{Name: "SampleIdx", Type: Int64},
	)
	if err != nil {
		t.Fatal(err)
	}
	prows := make([]Payload, features)
	for i := range prows {
		p := params.Schema().NewPayload()
		p.SetInt64(sgd.ColParamID, int64(i))
		p.SetFloat64(sgd.ColValue, 0)
		prows[i] = p
	}
	srows := make([]Payload, len(shuffled))
	for i := range srows {
		p := samples.Schema().NewPayload()
		p.SetInt64(sgd.ColRandID, int64(i))
		p.SetInt64(sgd.ColSampleIdx, int64(i))
		srows[i] = p
	}
	if err := db.BulkLoad(params, prows); err != nil {
		t.Fatal(err)
	}
	if err := db.BulkLoad(samples, srows); err != nil {
		t.Fatal(err)
	}
	if err := samples.CreateTreeIndex("RandID"); err != nil {
		t.Fatal(err)
	}
	return &sgd.Tables{Params: params, Samples: samples, Store: shuffled, Features: features}
}

// TestShardedSGDMatchesSingleKernel: a single-writer SGD run (one sub, so
// the schedule is deterministic) over a parameter table sharded 1/2/4 ways
// must produce the BIT-EXACT model the single-kernel run does. The sub
// runs on one shard but its model rows live on every shard, so every
// gradient step is a cross-shard iterative write through the view and the
// final model is published by the distributed two-phase commit.
func TestShardedSGDMatchesSingleKernel(t *testing.T) {
	const features = 20
	train, _ := svm.Generate(svm.GenSpec{
		Train: 400, Test: 1, Features: features, Density: 1, Noise: 0.05, Seed: 29,
	})
	cfg := sgd.Config{Epochs: 6, Lambda: 1e-5, Seed: 1}

	mgr := txn.NewManager()
	tablesA, err := sgd.LoadTables(mgr, train, features, 1)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := exec.NewPool(exec.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	scfg := cfg
	scfg.Pool = pool
	want, err := sgd.Run(mgr, tablesA, scfg)
	if err != nil {
		t.Fatal(err)
	}

	for _, shards := range []int{1, 2, 4} {
		db := Open(WithShards(shards), WithShardScheme(ShardRoundRobin), WithWorkers(2))
		tables := loadShardedSGD(t, db, train, features, 1)
		subs, err := sgd.BuildSubs(tables, db.Stable(), 1, cfg)
		if err != nil {
			t.Fatal(err)
		}
		h, err := db.SubmitML(context.Background(), MLRun{
			Isolation: MLOptions{Level: Asynchronous},
			Label:     "sgd",
			Attach:    []Attachment{{Table: tables.Params}},
			Subs:      subs,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.Wait(); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		for i := 0; i < features; i++ {
			p, ok := tables.Params.Read(RowID(i), h.CommitTS())
			if !ok {
				t.Fatalf("shards=%d: parameter %d unreadable", shards, i)
			}
			if got := p.Float64(sgd.ColValue); got != want.Model[i] {
				t.Fatalf("shards=%d param %d: distributed %v != single-kernel %v",
					shards, i, got, want.Model[i])
			}
		}
		db.Close()
	}
}

// TestShardedSGDLearnsHogwild: the multi-writer Hogwild configuration —
// four subs hammering a 2-way-sharded shared model asynchronously — is not
// deterministic, but the distributed run must still learn: the committed
// model has to classify held-out data as well as the single-kernel test
// demands.
func TestShardedSGDLearnsHogwild(t *testing.T) {
	const features = 30
	train, test := svm.Generate(svm.GenSpec{
		Train: 3000, Test: 600, Features: features, Density: 1, Noise: 0.05, Seed: 29,
	})
	db := Open(WithShards(2), WithShardScheme(ShardRoundRobin), WithWorkers(2))
	defer db.Close()
	tables := loadShardedSGD(t, db, train, features, 1)
	subs, err := sgd.BuildSubs(tables, db.Stable(), 4, sgd.Config{Epochs: 12, Lambda: 1e-5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	h, err := db.SubmitML(context.Background(), MLRun{
		Isolation: MLOptions{Level: Asynchronous},
		Attach:    []Attachment{{Table: tables.Params}},
		Subs:      subs,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Wait(); err != nil {
		t.Fatal(err)
	}
	model := make(svm.VecModel, features)
	for i := range model {
		p, ok := tables.Params.Read(RowID(i), h.CommitTS())
		if !ok {
			t.Fatalf("parameter %d unreadable", i)
		}
		model[i] = p.Float64(sgd.ColValue)
	}
	if acc := svm.Accuracy(model, test); acc < 0.85 {
		t.Fatalf("distributed Hogwild accuracy = %v", acc)
	}
}

// TestShardedQueryEndToEnd runs the supervised distributed query path:
// a filter→aggregate→sort plan over a sharded table (filters scatter to
// per-shard fragments, the aggregate and sort gather), and the documented
// rejections surface as submission-time errors.
func TestShardedQueryEndToEnd(t *testing.T) {
	const n = 30
	db, tbl := openShardedCounters(t, 3, n)
	defer db.Close()

	// Set Value = ID via one distributed run so the aggregate has spread.
	subs := make([]IterativeTransaction, n)
	for i := range subs {
		subs[i] = &incSub{tbl: tbl, row: RowID(i), target: float64(i)}
	}
	if _, err := db.RunML(MLRun{
		Isolation: MLOptions{Level: Asynchronous},
		Attach:    []Attachment{{Table: tbl}},
		Subs:      subs,
	}); err != nil {
		t.Fatal(err)
	}

	rel, err := db.RunQuery(context.Background(), QueryRun{
		Plan: SortBy(
			Aggregate(
				Filter(Scan(tbl), FloatCmp("Value", Gt, 0)),
				Sum, "ID", "S", Col("Value")),
			"ID", false),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Rows 1..n-1 pass the filter (incSub leaves row 0's value at 0 — its
	// target is 0 so the first increment still runs; accept either) and
	// each groups alone: ID ascending, S = float64(ID).
	if len(rel.Rows) < n-1 {
		t.Fatalf("aggregate produced %d groups, want >= %d", len(rel.Rows), n-1)
	}
	for _, r := range rel.Rows {
		id := r.Int64(0)
		if s := math.Float64frombits(r[1]); id > 0 && s != float64(id) {
			t.Fatalf("group %d sum = %v, want %v", id, s, float64(id))
		}
	}

	// Rejections: a join cannot scatter.
	if _, err := db.RunQuery(context.Background(), QueryRun{
		Plan:  Join(Scan(tbl), Scan(tbl), "ID", "ID"),
		Retry: &RetryPolicy{},
	}); err == nil {
		t.Fatal("scattered join accepted")
	}
}

// TestShardedGCReclaimsPerShard: every shard's reclaimer prunes its own
// locals under its own watermark — after a multi-iteration run commits and
// no snapshot pins old versions, PruneNow reclaims on every shard.
func TestShardedGCReclaimsPerShard(t *testing.T) {
	const n = 8
	db, tbl := openShardedCounters(t, 2, n)
	defer db.Close()
	subs := make([]IterativeTransaction, n)
	for i := range subs {
		subs[i] = &incSub{tbl: tbl, row: RowID(i), target: 6}
	}
	if _, err := db.RunML(MLRun{
		Isolation: MLOptions{Level: Asynchronous},
		Attach:    []Attachment{{Table: tbl}},
		Subs:      subs,
	}); err != nil {
		t.Fatal(err)
	}
	if pruned := db.PruneNow(); pruned == 0 {
		t.Fatal("nothing reclaimed after a committed multi-version run")
	}
	passes, pruned := db.GCStats()
	if passes < 2 || pruned == 0 {
		t.Fatalf("GCStats = (%d passes, %d pruned), want one pass per shard", passes, pruned)
	}
	// The committed state survives pruning.
	tx := db.Begin()
	defer tx.Abort()
	for i := 0; i < n; i++ {
		if p, ok := tx.Read(tbl, RowID(i)); !ok || p.Float64(1) != 6 {
			t.Fatalf("row %d = (%v, %v) after GC", i, p, ok)
		}
	}
}

// TestShardedCloseRejectsAndDrains: Close waits for the distributed
// commit, later submissions fail with ErrClosed.
func TestShardedCloseRejectsAndDrains(t *testing.T) {
	db, tbl := openShardedCounters(t, 2, 4)
	subs := make([]IterativeTransaction, 4)
	for i := range subs {
		subs[i] = &incSub{tbl: tbl, row: RowID(i), target: 3}
	}
	h, err := db.SubmitML(context.Background(), MLRun{
		Isolation: MLOptions{Level: Asynchronous},
		Attach:    []Attachment{{Table: tbl}},
		Subs:      subs,
	})
	if err != nil {
		t.Fatal(err)
	}
	db.Close()
	select {
	case <-h.Done():
	default:
		t.Fatal("Close returned with the distributed run still in flight")
	}
	if _, err := db.SubmitML(context.Background(), MLRun{
		Isolation: MLOptions{Level: Asynchronous},
		Attach:    []Attachment{{Table: tbl}},
		Subs:      subs,
	}); err != ErrClosed {
		t.Fatalf("post-Close SubmitML error = %v, want ErrClosed", err)
	}
	if _, err := db.RunQuery(context.Background(), QueryRun{Plan: Scan(tbl)}); err != ErrClosed {
		t.Fatalf("post-Close RunQuery error = %v, want ErrClosed", err)
	}
}

// readShardedCounters reads every counter row through one cross-shard
// snapshot.
func readShardedCounters(t *testing.T, db *DB, tbl *Table, n int) []float64 {
	t.Helper()
	tx := db.Begin()
	defer tx.Abort()
	out := make([]float64, n)
	for i := range out {
		p, ok := tx.Read(tbl, RowID(i))
		if !ok {
			t.Fatalf("row %d unreadable", i)
		}
		out[i] = p.Float64(1)
	}
	return out
}

// TestShardedRetryAfterPanic is TestRetrySucceedsAfterPanic on two shards:
// a one-shot planted panic aborts the first distributed attempt on every
// shard, the retry commits the fault-free result, and the resubmission is
// counted once on the shard-0 observer.
func TestShardedRetryAfterPanic(t *testing.T) {
	const n, target = 16, 6.0
	db, tbl := openShardedCounters(t, 2, n)
	defer db.Close()

	subs, budget := flakySubs(tbl, n, target, 1)
	o := NewObserver()
	h, err := db.SubmitML(context.Background(), MLRun{
		Isolation: MLOptions{Level: Asynchronous},
		BatchSize: 4,
		Attach:    []Attachment{{Table: tbl}},
		Subs:      subs,
		Observer:  o,
		Retry:     &RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, werr := h.Wait(); werr != nil {
		t.Fatalf("retried distributed run failed: %v", werr)
	}
	if got := h.Attempts(); got != 2 {
		t.Fatalf("Attempts = %d, want 2", got)
	}
	if budget.Load() > 0 {
		t.Fatal("planted panic never fired")
	}
	for i, v := range readShardedCounters(t, db, tbl, n) {
		if v != target {
			t.Fatalf("row %d = %v, want %v", i, v, target)
		}
	}
	if h.ShardObservers()[0] != o {
		t.Fatal("shard 0's observer is not the caller's")
	}
	if snap := o.Snapshot(); snap.Counters.Retries != 1 || snap.Cumulative.Retries != 1 {
		t.Fatalf("shard-0 telemetry Retries = %d (cumulative %d), want 1",
			snap.Counters.Retries, snap.Cumulative.Retries)
	}
}

// loopShardedRun submits a never-converging distributed run over tbl's n
// rows and waits until it has committed an iteration.
func loopShardedRun(t *testing.T, ctx context.Context, db *DB, tbl *Table, n int) *JobHandle {
	t.Helper()
	subs := make([]IterativeTransaction, n)
	for i := range subs {
		subs[i] = &loopSub{tbl: tbl, row: RowID(i)}
	}
	h, err := db.SubmitML(ctx, MLRun{
		Isolation: MLOptions{Level: Asynchronous},
		BatchSize: 1,
		Attach:    []Attachment{{Table: tbl}},
		Subs:      subs,
		Retry:     &RetryPolicy{MaxAttempts: 3, RetryIf: func(error) bool { return true }},
	})
	if err != nil {
		t.Fatal(err)
	}
	for h.ShardStats()[0].Commits == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	return h
}

// TestShardedCancel: Cancel aborts the distributed run on every shard —
// ErrJobCancelled, one attempt even under a retry-everything policy, and
// the tables untouched.
func TestShardedCancel(t *testing.T) {
	const n = 8
	db, tbl := openShardedCounters(t, 2, n)
	defer db.Close()
	h := loopShardedRun(t, context.Background(), db, tbl, n)
	h.Cancel()
	if _, err := h.Wait(); !errors.Is(err, ErrJobCancelled) {
		t.Fatalf("Wait after Cancel = %v, want ErrJobCancelled", err)
	}
	if h.Attempts() != 1 || h.CommitTS() != 0 {
		t.Fatalf("cancelled run: Attempts = %d, CommitTS = %d; want 1, 0", h.Attempts(), h.CommitTS())
	}
	for i, v := range readShardedCounters(t, db, tbl, n) {
		if v != 0 {
			t.Fatalf("cancelled run leaked writes: row %d = %v", i, v)
		}
	}
}

// TestShardedContextCancel: cancelling the submitter's ctx aborts the
// distributed run everywhere and Wait reports the ctx's error.
func TestShardedContextCancel(t *testing.T) {
	const n = 8
	db, tbl := openShardedCounters(t, 2, n)
	defer db.Close()
	ctx, cancel := context.WithCancel(context.Background())
	h := loopShardedRun(t, ctx, db, tbl, n)
	cancel()
	if _, err := h.Wait(); err != context.Canceled {
		t.Fatalf("Wait after ctx cancel = %v, want context.Canceled", err)
	}
	if h.Attempts() != 1 {
		t.Fatalf("Attempts = %d, want 1", h.Attempts())
	}
	for i, v := range readShardedCounters(t, db, tbl, n) {
		if v != 0 {
			t.Fatalf("cancelled run leaked writes: row %d = %v", i, v)
		}
	}
}

// TestShardedWedgedForeverStallNotRetried is TestWedgedForeverStallNotRetried
// on two 1-worker shards: a shard whose worker never acknowledges the stall
// conviction must not have the same sub-transaction instances resubmitted
// underneath it, so the run resolves with ErrJobStalled after one attempt.
func TestShardedWedgedForeverStallNotRetried(t *testing.T) {
	db, tbl := openShardedCounters(t, 2, 1, WithWorkers(1))
	ws := &wedgeSub{release: make(chan struct{}), blocked: make(chan struct{})}
	h, err := db.SubmitML(context.Background(), MLRun{
		Isolation:    MLOptions{Level: Asynchronous},
		Attach:       []Attachment{{Table: tbl}},
		Subs:         []IterativeTransaction{ws},
		StallTimeout: 60 * time.Millisecond,
		Retry:        &RetryPolicy{MaxAttempts: 4, BaseBackoff: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	<-ws.blocked
	if _, werr := h.Wait(); !errors.Is(werr, ErrJobStalled) {
		t.Fatalf("Wait = %v, want ErrJobStalled", werr)
	}
	if got := h.Attempts(); got != 1 {
		t.Fatalf("Attempts = %d, want 1 (no retry under a live wedge)", got)
	}
	close(ws.release)
	db.Close()
}
