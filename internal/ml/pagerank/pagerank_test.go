package pagerank

import (
	"testing"

	"db4ml/internal/exec"
	"db4ml/internal/graph"
	"db4ml/internal/isolation"
	"db4ml/internal/itx"
	"db4ml/internal/metrics"
	"db4ml/internal/table"
	"db4ml/internal/txn"
)

func load(t *testing.T, g *graph.Graph) (*txn.Manager, *table.Table, *table.Table) {
	t.Helper()
	mgr := txn.NewManager()
	node, edge, err := LoadTables(mgr, g)
	if err != nil {
		t.Fatal(err)
	}
	return mgr, node, edge
}

// newPool starts a worker pool that is closed when the test ends.
func newPool(t *testing.T, cfg exec.Config) *exec.Pool {
	t.Helper()
	p, err := exec.NewPool(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

func diamondGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := graph.FromEdges(4, []graph.Edge{{From: 0, To: 1}, {From: 0, To: 2}, {From: 1, To: 3}, {From: 2, To: 3}, {From: 3, To: 0}})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestLoadTablesShape(t *testing.T) {
	g := diamondGraph(t)
	mgr, node, edge := load(t, g)
	if node.NumRows() != 4 || edge.NumRows() != 5 {
		t.Fatalf("table sizes = (%d, %d)", node.NumRows(), edge.NumRows())
	}
	p, ok := node.Read(2, mgr.Stable())
	if !ok || p.Int64(ColNodeID) != 2 || p.Float64(ColPR) != 0.25 {
		t.Fatalf("node row = (%v, %v)", p, ok)
	}
	rows, err := edge.Lookup("NID_To", 3)
	if err != nil || len(rows) != 2 {
		t.Fatalf("NID_To index lookup = (%v, %v)", rows, err)
	}
}

func TestSyncMatchesReference(t *testing.T) {
	g := diamondGraph(t)
	mgr, node, edge := load(t, g)
	want, _ := graph.PageRankRef(g, 0.85, 1e-12, 500)
	res, err := Run(mgr, node, edge, Config{
		Exec:      exec.JobConfig{BatchSize: 2},
		Pool:      newPool(t, exec.Config{Workers: 2}),
		Isolation: isolation.Options{Level: isolation.Synchronous},
		Epsilon:   1e-12,
	})
	if err != nil {
		t.Fatal(err)
	}
	if d := metrics.MaxAbsDiff(want, res.Ranks); d > 1e-9 {
		t.Fatalf("max diff vs reference = %v (ranks %v)", d, res.Ranks)
	}
	if res.Stats.Rounds < 2 {
		t.Fatalf("rounds = %d", res.Stats.Rounds)
	}
}

func TestSyncMatchesReferenceGenerated(t *testing.T) {
	g := graph.BarabasiAlbert(800, 8, 21)
	mgr, node, edge := load(t, g)
	want, _ := graph.PageRankRef(g, 0.85, 1e-10, 300)
	res, err := Run(mgr, node, edge, Config{
		Pool:      newPool(t, exec.Config{Workers: 4}),
		Isolation: isolation.Options{Level: isolation.Synchronous},
		Epsilon:   1e-10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if d := metrics.MaxAbsDiff(want, res.Ranks); d > 1e-8 {
		t.Fatalf("max diff vs reference = %v", d)
	}
}

func TestAsyncConvergesToReferenceRanking(t *testing.T) {
	g := graph.BarabasiAlbert(600, 6, 31)
	mgr, node, edge := load(t, g)
	want, _ := graph.PageRankRef(g, 0.85, 1e-10, 300)
	res, err := Run(mgr, node, edge, Config{
		Exec:      exec.JobConfig{BatchSize: 64},
		Pool:      newPool(t, exec.Config{Workers: 4}),
		Isolation: isolation.Options{Level: isolation.Asynchronous},
		Epsilon:   1e-10,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Asynchronous execution retires each node as soon as its own rank is
	// momentarily stable (Algorithm 2), so small deviations from the
	// exact fixpoint are expected; the ranking must still agree almost
	// everywhere.
	if acc := metrics.PairwiseAccuracy(want, res.Ranks, 0, 1); acc < 0.98 {
		t.Fatalf("pairwise accuracy vs reference = %v", acc)
	}
}

func TestBoundedStalenessConverges(t *testing.T) {
	g := graph.BarabasiAlbert(400, 6, 41)
	mgr, node, edge := load(t, g)
	want, _ := graph.PageRankRef(g, 0.85, 1e-10, 300)
	res, err := Run(mgr, node, edge, Config{
		Exec:      exec.JobConfig{BatchSize: 32},
		Pool:      newPool(t, exec.Config{Workers: 4}),
		Isolation: isolation.Options{Level: isolation.BoundedStaleness, Staleness: 10},
		Epsilon:   1e-10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if acc := metrics.PairwiseAccuracy(want, res.Ranks, 0, 1); acc < 0.98 {
		t.Fatalf("pairwise accuracy = %v", acc)
	}
}

func TestGeneralMultiVersionPath(t *testing.T) {
	// Versions > 0 disables the single-writer hint and exercises the
	// seqlock multi-version storage (Figure 11's general path).
	g := graph.BarabasiAlbert(200, 5, 51)
	mgr, node, edge := load(t, g)
	want, _ := graph.PageRankRef(g, 0.85, 1e-10, 300)
	res, err := Run(mgr, node, edge, Config{
		Exec:      exec.JobConfig{BatchSize: 16},
		Pool:      newPool(t, exec.Config{Workers: 2}),
		Isolation: isolation.Options{Level: isolation.BoundedStaleness, Staleness: 16},
		Epsilon:   1e-10,
		Versions:  18,
	})
	if err != nil {
		t.Fatal(err)
	}
	if acc := metrics.PairwiseAccuracy(want, res.Ranks, 0, 1); acc < 0.95 {
		t.Fatalf("pairwise accuracy = %v", acc)
	}
}

func TestFixedIterations(t *testing.T) {
	g := graph.ErdosRenyi(100, 500, 3)
	mgr, node, edge := load(t, g)
	res, err := Run(mgr, node, edge, Config{
		Exec:      exec.JobConfig{MaxIterations: 6},
		Pool:      newPool(t, exec.Config{Workers: 2}),
		Isolation: isolation.Options{Level: isolation.Synchronous},
		Epsilon:   -1, // never converge on epsilon
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Rounds != 6 {
		t.Fatalf("rounds = %d, want 6", res.Stats.Rounds)
	}
	if res.Stats.ForcedStops != 100 {
		t.Fatalf("forced stops = %d", res.Stats.ForcedStops)
	}
}

func TestResultCommittedAndVisibleToOLTP(t *testing.T) {
	g := diamondGraph(t)
	mgr, node, edge := load(t, g)
	res, err := Run(mgr, node, edge, Config{
		Pool:      newPool(t, exec.Config{Workers: 2}),
		Isolation: isolation.Options{Level: isolation.Synchronous},
		Epsilon:   1e-10,
	})
	if err != nil {
		t.Fatal(err)
	}
	tx := mgr.Begin()
	p, ok := tx.Read(node, 3)
	if !ok {
		t.Fatal("row unreadable after ML commit")
	}
	if got := p.Float64(ColPR); got != res.Ranks[3] {
		t.Fatalf("OLTP read %v, ML result %v", got, res.Ranks[3])
	}
	// And OLTP can update the table again after the uber-transaction.
	p.SetFloat64(ColPR, 0.5)
	if err := tx.Write(node, 3, p); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("OLTP write after ML run failed: %v", err)
	}
}

func TestStragglerHookRuns(t *testing.T) {
	g := graph.ErdosRenyi(60, 240, 8)
	mgr, node, edge := load(t, g)
	hooks := 0
	_, err := Run(mgr, node, edge, Config{
		Exec: exec.JobConfig{
			MaxIterations: 3,
			IterationHook: func(worker int) { hooks++ },
		},
		Pool:      newPool(t, exec.Config{Workers: 1}),
		Isolation: isolation.Options{Level: isolation.Asynchronous},
		Epsilon:   -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if hooks != 60*3 {
		t.Fatalf("hook ran %d times, want 180", hooks)
	}
}

// TestRunReleasesSnapshotWhenAttachFails: a Run that cannot attach the Node
// table (another uber-transaction holds it) unwinds its uber-transaction
// instead of leaking the snapshot pin, which would freeze the GC watermark.
func TestRunReleasesSnapshotWhenAttachFails(t *testing.T) {
	mgr, node, edge := load(t, diamondGraph(t))
	sync := isolation.Options{Level: isolation.Synchronous}
	other, err := itx.BeginUber(mgr, sync)
	if err != nil {
		t.Fatal(err)
	}
	if err := other.Attach(node, nil, 1); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = other.Abort() }()
	before := mgr.ActiveSnapshots()
	if _, err := Run(mgr, node, edge, Config{Pool: newPool(t, exec.Config{Workers: 1}), Isolation: sync}); err == nil {
		t.Fatal("Run attached a Node table another uber-transaction holds")
	}
	if got := mgr.ActiveSnapshots(); got != before {
		t.Fatalf("active snapshots %d after the failed Run, %d before", got, before)
	}
}
