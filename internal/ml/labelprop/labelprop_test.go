package labelprop

import (
	"errors"
	"strings"
	"testing"

	"db4ml/internal/exec"
	"db4ml/internal/graph"
	"db4ml/internal/isolation"
	"db4ml/internal/resilience"
	"db4ml/internal/txn"
)

// threeComponents: {0,1,2} chained, {3,4} chained, {5} isolated.
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

func threeComponents(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := graph.FromEdges(6, []graph.Edge{{From: 2, To: 1}, {From: 1, To: 0}, {From: 4, To: 3}})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestRefComponents(t *testing.T) {
	g := threeComponents(t)
	ref := RefComponents(g)
	want := []int64{0, 0, 0, 3, 3, 5}
	for i := range want {
		if ref[i] != want[i] {
			t.Fatalf("ref = %v, want %v", ref, want)
		}
	}
}

func TestSyncComponentsExact(t *testing.T) {
	g := threeComponents(t)
	mgr := txn.NewManager()
	tbl, err := LoadTable(mgr, g)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(mgr, tbl, g, Config{
		Pool:      newPool(t, exec.Config{Workers: 2}),
		Isolation: isolation.Options{Level: isolation.Synchronous},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := RefComponents(g)
	for v := range want {
		if res.Labels[v] != want[v] {
			t.Fatalf("labels = %v, want %v", res.Labels, want)
		}
	}
	if res.Components != 3 {
		t.Fatalf("components = %d, want 3", res.Components)
	}
}

// A long path is the adversarial case for premature retirement: the
// minimum label needs n-1 rounds to reach the far end.
func TestSyncLongPathPropagation(t *testing.T) {
	const n = 64
	edges := make([]graph.Edge, n-1)
	for i := range edges {
		edges[i] = graph.Edge{From: int32(i), To: int32(i + 1)}
	}
	g, err := graph.FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	mgr := txn.NewManager()
	tbl, err := LoadTable(mgr, g)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(mgr, tbl, g, Config{
		Pool:      newPool(t, exec.Config{Workers: 4}),
		Isolation: isolation.Options{Level: isolation.Synchronous},
	})
	if err != nil {
		t.Fatal(err)
	}
	for v, l := range res.Labels {
		if l != 0 {
			t.Fatalf("node %d label %d; min label failed to traverse the path", v, l)
		}
	}
	if res.Components != 1 {
		t.Fatalf("components = %d", res.Components)
	}
	if res.Stats.Rounds < n-1 {
		t.Fatalf("rounds = %d, propagation needs at least %d", res.Stats.Rounds, n-1)
	}
}

func TestComponentsOnGeneratedGraph(t *testing.T) {
	g := graph.ErdosRenyi(300, 350, 13) // sparse: several components
	mgr := txn.NewManager()
	tbl, err := LoadTable(mgr, g)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(mgr, tbl, g, Config{
		Pool:      newPool(t, exec.Config{Workers: 4}),
		Isolation: isolation.Options{Level: isolation.Synchronous},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := RefComponents(g)
	for v := range want {
		if res.Labels[v] != want[v] {
			t.Fatalf("node %d: label %d, want %d", v, res.Labels[v], want[v])
		}
	}
}

func TestAsyncComponentsConverge(t *testing.T) {
	// Min-propagation is monotone, so async execution also reaches the
	// exact labeling on connected structures where every node keeps
	// iterating until quiet; verify on a modest random graph.
	g := graph.BarabasiAlbert(400, 3, 17)
	mgr := txn.NewManager()
	tbl, err := LoadTable(mgr, g)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(mgr, tbl, g, Config{
		Exec:      exec.JobConfig{BatchSize: 16},
		Pool:      newPool(t, exec.Config{Workers: 4}),
		Isolation: isolation.Options{Level: isolation.Asynchronous},
	})
	if err != nil {
		t.Fatal(err)
	}
	// BA graphs are connected by construction: everything should reach 0.
	mislabeled := 0
	for _, l := range res.Labels {
		if l != 0 {
			mislabeled++
		}
	}
	if frac := float64(mislabeled) / float64(len(res.Labels)); frac > 0.05 {
		t.Fatalf("%.1f%% of nodes kept stale labels under async", frac*100)
	}
}

// TestRunRejectsRowsMissingFromTable: a graph naming nodes the table has
// no rows for fails before any sub-transaction runs, with an error naming
// the missing row — not a worker panic — and leaves no snapshot pinned.
func TestRunRejectsRowsMissingFromTable(t *testing.T) {
	small, err := graph.FromEdges(3, []graph.Edge{{From: 1, To: 0}})
	if err != nil {
		t.Fatal(err)
	}
	farNeighbor, err := graph.FromEdges(5, []graph.Edge{{From: 0, To: 4}})
	if err != nil {
		t.Fatal(err)
	}
	pool := newPool(t, exec.Config{Workers: 2})
	for _, c := range []struct {
		name string
		g    *graph.Graph
		want string
	}{
		{"node", threeComponents(t), "node 3"},
		{"neighbor", farNeighbor, "neighbor 4"},
	} {
		t.Run(c.name, func(t *testing.T) {
			mgr := txn.NewManager()
			tbl, err := LoadTable(mgr, small)
			if err != nil {
				t.Fatal(err)
			}
			_, err = Run(mgr, tbl, c.g, Config{Pool: pool})
			if err == nil || errors.Is(err, resilience.ErrJobPanicked) || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err = %v, want an error naming %s", err, c.want)
			}
			if n := mgr.ActiveSnapshots(); n != 0 {
				t.Fatalf("%d snapshots pinned after the rejected run", n)
			}
		})
	}
}
