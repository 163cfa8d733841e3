package plan_test

import (
	"context"
	"math"
	"strings"
	"testing"

	"db4ml/internal/exec"
	"db4ml/internal/partition"
	"db4ml/internal/plan"
	"db4ml/internal/relational"
	"db4ml/internal/shard"
	"db4ml/internal/storage"
	"db4ml/internal/table"
	"db4ml/internal/txn"
)

var factSchema = table.MustSchema(
	table.Column{Name: "ID", Type: table.Int64},
	table.Column{Name: "K", Type: table.Int64},
	table.Column{Name: "V", Type: table.Float64},
)

// factRows builds the (ID, K, V) fact rows: ID = i, K = i % groups, V = i.
func factRows(n, groups int) []storage.Payload {
	rows := make([]storage.Payload, n)
	for i := 0; i < n; i++ {
		rows[i] = storage.Payload{uint64(int64(i)), uint64(int64(i % groups)), math.Float64bits(float64(i))}
	}
	return rows
}

// shardedFact loads the fact rows into a round-robin sharded table.
func shardedFact(t *testing.T, shards, n, groups int) (*shard.Cluster, *shard.Table) {
	t.Helper()
	cluster, err := shard.NewCluster(shards, exec.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	router := shard.NewRouter(partition.RoundRobin, shards, uint64(n))
	st := shard.NewTable("fact", factSchema, router)
	if _, _, err := st.Load(cluster, factRows(n, groups)); err != nil {
		cluster.Close()
		t.Fatal(err)
	}
	return cluster, st
}

// singleFact loads the same fact rows into one kernel for the baseline.
func singleFact(t *testing.T, n, groups int) (*txn.Manager, *table.Table) {
	t.Helper()
	m := txn.NewManager()
	tbl := table.New("fact", factSchema)
	m.PublishAt(func(ts storage.Timestamp) {
		for _, p := range factRows(n, groups) {
			if _, err := tbl.Append(ts, p); err != nil {
				t.Fatal(err)
			}
		}
	})
	return m, tbl
}

func shardEnvs(cluster *shard.Cluster) []plan.Env {
	envs := make([]plan.Env, cluster.Shards())
	for i := range envs {
		envs[i] = plan.Env{Mgr: cluster.Kernel(i).Mgr()}
	}
	return envs
}

func rebindTo(st *shard.Table) func(*table.Table, int) *table.Table {
	return func(tbl *table.Table, s int) *table.Table {
		if tbl == st.View() {
			return st.Local(s)
		}
		return nil
	}
}

func sameRel(t *testing.T, got, want *relational.Relation, label string) {
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
		for j := range got.Rows[i] {
			if got.Rows[i][j] != want.Rows[i][j] {
				t.Fatalf("%s: row %d col %d: %d vs %d", label, i, j, got.Rows[i][j], want.Rows[i][j])
			}
		}
	}
}

// TestScatterGatherMatchesSingleKernel runs a filter→aggregate→sort plan
// over 1-, 2-, and 3-shard clusters and over one kernel holding the same
// rows; every sharded result must be word-identical to the single-kernel
// one. The filter runs scattered (pushed into each shard's local scan),
// the aggregate and sort run in the gather stage over the concatenated
// fragments.
func TestScatterGatherMatchesSingleKernel(t *testing.T) {
	const n, groups = 40, 4
	build := func(tbl *table.Table) *plan.Node {
		return plan.SortBy(
			plan.Aggregate(
				plan.Filter(plan.Scan(tbl), plan.IntCmp("K", plan.Ne, 0)),
				relational.Sum, "K", "S", plan.Col("V")),
			"K", false)
	}

	m, single := singleFact(t, n, groups)
	prep, err := plan.Prepare(build(single), plan.Env{Mgr: m})
	if err != nil {
		t.Fatal(err)
	}
	want, err := prep.Collect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Rows) != groups-1 {
		t.Fatalf("baseline produced %d groups, want %d", len(want.Rows), groups-1)
	}

	for _, shards := range []int{1, 2, 3} {
		cluster, st := shardedFact(t, shards, n, groups)
		got, err := plan.ScatterGather(context.Background(), build(st.View()), shardEnvs(cluster), rebindTo(st))
		cluster.Close()
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		sameRel(t, got, want, "shards="+string(rune('0'+shards)))
	}
}

// TestScatterGatherGlobalTopK pins the reason sort and limit must gather:
// the top 5 rows by V across a 3-shard cluster are NOT the top rows of any
// one shard. A scatter that applied the limit per shard would return 15
// candidates or the wrong 5; the gather stage must produce the global
// answer.
func TestScatterGatherGlobalTopK(t *testing.T) {
	const n = 30
	cluster, st := shardedFact(t, 3, n, 3)
	defer cluster.Close()

	p := plan.Limit(plan.SortBy(plan.Scan(st.View()), "V", true), 5)
	got, err := plan.ScatterGather(context.Background(), p, shardEnvs(cluster), rebindTo(st))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != 5 {
		t.Fatalf("top-5 returned %d rows", len(got.Rows))
	}
	vi := -1
	for i, c := range got.Cols {
		if c == "V" {
			vi = i
		}
	}
	for i, row := range got.Rows {
		if wantV := float64(n - 1 - i); math.Float64frombits(row[vi]) != wantV {
			t.Fatalf("global top-5 rank %d has V=%g, want %g",
				i, math.Float64frombits(row[vi]), wantV)
		}
	}
}

// TestScatterGatherPerShardSnapshots proves each fragment pins its
// snapshot in its OWN shard's manager: rows published through shard 1's
// manager after the initial load advance only shard 1's stable watermark,
// so they are visible iff shard 1's fragment reads at shard 1's stable —
// a fragment mistakenly run at shard 0's (older) stable would miss them.
func TestScatterGatherPerShardSnapshots(t *testing.T) {
	const n = 12
	cluster, st := shardedFact(t, 2, n, 3)
	defer cluster.Close()

	cluster.Kernel(1).Mgr().PublishAt(func(ts storage.Timestamp) {
		if _, err := st.Local(1).Append(ts, storage.Payload{uint64(n), 0, math.Float64bits(float64(n))}); err != nil {
			t.Fatal(err)
		}
	})

	got, err := plan.ScatterGather(context.Background(), plan.Scan(st.View()),
		shardEnvs(cluster), rebindTo(st))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != n+1 {
		t.Fatalf("scatter scan saw %d rows, want %d (shard 1's post-load append must be visible at shard 1's own stable)",
			len(got.Rows), n+1)
	}
}

// TestScatterGatherRejections pins the error surface: joins, iterate
// bodies, and RowRange predicates cannot scatter, and each refusal must
// name its reason.
func TestScatterGatherRejections(t *testing.T) {
	cluster, st := shardedFact(t, 2, 8, 2)
	defer cluster.Close()
	envs := shardEnvs(cluster)
	ctx := context.Background()

	cases := []struct {
		name string
		p    *plan.Node
		want string
	}{
		{"join", plan.Join(plan.Scan(st.View()), plan.Scan(st.View()), "K", "K"), "join"},
		{"rowrange", plan.Filter(plan.Scan(st.View()), plan.RowRange(0, 4)), "shard-local"},
		{"static", plan.Static(&relational.Relation{Cols: []string{"X"}}), "static"},
	}
	for _, tc := range cases {
		_, err := plan.ScatterGather(ctx, tc.p, envs, rebindTo(st))
		if err == nil {
			t.Fatalf("%s: scatter accepted an unscatterable plan", tc.name)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not name %q", tc.name, err, tc.want)
		}
	}

	// A scan of a table the rebind map does not know is a sharding error,
	// not a silent full-table read on one shard.
	other := table.New("other", factSchema)
	if _, err := plan.ScatterGather(ctx, plan.Scan(other), envs, rebindTo(st)); err == nil {
		t.Fatal("scatter accepted a scan of an unsharded table")
	}
}
