package sgd

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"db4ml/internal/exec"
	"db4ml/internal/numa"
	"db4ml/internal/svm"
	"db4ml/internal/table"
	"db4ml/internal/txn"
)

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

func dataset(t *testing.T) ([]svm.Sample, []svm.Sample, int) {
	t.Helper()
	const features = 30
	train, test := svm.Generate(svm.GenSpec{
		Train: 3000, Test: 600, Features: features, Density: 1, Noise: 0.05, Seed: 29,
	})
	return train, test, features
}

func TestLoadTablesShape(t *testing.T) {
	train, _, features := dataset(t)
	mgr := txn.NewManager()
	tables, err := LoadTables(mgr, train, features, 1)
	if err != nil {
		t.Fatal(err)
	}
	if tables.Params.NumRows() != features {
		t.Fatalf("param rows = %d", tables.Params.NumRows())
	}
	if tables.Samples.NumRows() != len(train) {
		t.Fatalf("sample rows = %d", tables.Samples.NumRows())
	}
	if tables.Samples.TreeIndex("RandID") == nil {
		t.Fatal("RandID index missing")
	}
	// Shuffled copy, not the caller's slice order.
	if &tables.Store[0] == &train[0] {
		t.Fatal("Store aliases caller slice")
	}
	// Parameters start at zero.
	p, ok := tables.Params.Read(0, mgr.Stable())
	if !ok || p.Float64(ColValue) != 0 {
		t.Fatalf("initial parameter = (%v, %v)", p, ok)
	}
}

func TestSharedModelLearns(t *testing.T) {
	train, test, features := dataset(t)
	mgr := txn.NewManager()
	tables, err := LoadTables(mgr, train, features, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(mgr, tables, Config{
		Pool:   newPool(t, exec.Config{Workers: 4}),
		Epochs: 12, Lambda: 1e-5, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if acc := svm.Accuracy(res.Model, test); acc < 0.85 {
		t.Fatalf("test accuracy = %v", acc)
	}
	// One epoch per sub-transaction iteration: workers × epochs commits.
	if res.Stats.Commits != 4*12 {
		t.Fatalf("commits = %d, want 48", res.Stats.Commits)
	}
}

func TestReplicatedNUMALearns(t *testing.T) {
	train, test, features := dataset(t)
	mgr := txn.NewManager()
	tables, err := LoadTables(mgr, train, features, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(mgr, tables, Config{
		Pool:   newPool(t, exec.Config{Workers: 4, Topology: numa.NewTopology(2, 4)}),
		Epochs: 12, Lambda: 1e-5, Seed: 1, Mode: ReplicatedNUMA,
	})
	if err != nil {
		t.Fatal(err)
	}
	if acc := svm.Accuracy(res.Model, test); acc < 0.85 {
		t.Fatalf("replicated accuracy = %v", acc)
	}
}

func TestModelInvisibleUntilCommit(t *testing.T) {
	train, _, features := dataset(t)
	mgr := txn.NewManager()
	tables, err := LoadTables(mgr, train, features, 1)
	if err != nil {
		t.Fatal(err)
	}
	preTS := mgr.Stable()
	res, err := Run(mgr, tables, Config{
		Pool: newPool(t, exec.Config{Workers: 2}), Epochs: 2, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// At the pre-run snapshot the parameters are still zero.
	p, ok := tables.Params.Read(0, preTS)
	if !ok || p.Float64(ColValue) != 0 {
		t.Fatalf("pre-run snapshot changed: %v", p)
	}
	// At the commit timestamp they equal the result model.
	p, _ = tables.Params.Read(0, res.CommitTS)
	if p.Float64(ColValue) != res.Model[0] {
		t.Fatalf("committed parameter %v != result %v", p.Float64(ColValue), res.Model[0])
	}
}

func TestSingleWorker(t *testing.T) {
	train, test, features := dataset(t)
	mgr := txn.NewManager()
	tables, err := LoadTables(mgr, train, features, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(mgr, tables, Config{
		Pool: newPool(t, exec.Config{Workers: 1}), Epochs: 12, Lambda: 1e-5, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if acc := svm.Accuracy(res.Model, test); acc < 0.85 {
		t.Fatalf("single worker accuracy = %v", acc)
	}
}

func TestEmptyTrainingSetRejected(t *testing.T) {
	mgr := txn.NewManager()
	tables, err := LoadTables(mgr, nil, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(mgr, tables, Config{Pool: newPool(t, exec.Config{Workers: 2})}); err == nil {
		t.Fatal("empty training set accepted")
	}
}

func TestKeyRangesPartitionSamples(t *testing.T) {
	train, _, features := dataset(t)
	mgr := txn.NewManager()
	tables, err := LoadTables(mgr, train, features, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Run with 3 workers; every sample row must belong to exactly one
	// sub-transaction's key range. We verify by re-deriving the ranges.
	nSubs := 3
	rows := len(tables.Store)
	per := rows / nSubs
	covered := make([]bool, rows)
	for i := 0; i < nSubs; i++ {
		low := i * per
		high := low + per - 1
		if i == nSubs-1 {
			high = rows - 1
		}
		for k := low; k <= high; k++ {
			if covered[k] {
				t.Fatalf("RandID %d in two ranges", k)
			}
			covered[k] = true
		}
	}
	for k, c := range covered {
		if !c {
			t.Fatalf("RandID %d unassigned", k)
		}
	}
}

func TestOLTPCanQueryModelAfterCommit(t *testing.T) {
	train, _, features := dataset(t)
	mgr := txn.NewManager()
	tables, err := LoadTables(mgr, train, features, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(mgr, tables, Config{Pool: newPool(t, exec.Config{Workers: 2}), Epochs: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tx := mgr.Begin()
	p, ok := tx.Read(tables.Params, table.RowID(0))
	if !ok {
		t.Fatal("parameter row unreadable by OLTP transaction")
	}
	if p.Float64(ColValue) != res.Model[0] {
		t.Fatalf("OLTP read %v != model %v", p.Float64(ColValue), res.Model[0])
	}
}

// TestOneWorkerModelsPinned: with one worker the run is deterministic, so
// the trained model of each mode hashes to a fixed value. Run builds its
// subs through BuildSubs; the hashes were taken when Run still split the
// key ranges itself, so they pin that the two constructions agree.
func TestOneWorkerModelsPinned(t *testing.T) {
	train, _, features := dataset(t)
	for _, c := range []struct {
		mode Mode
		want uint64
	}{
		{SharedModel, 0xe87f1811272d583},
		{ReplicatedNUMA, 0xe87f1811272d583},
	} {
		mgr := txn.NewManager()
		tables, err := LoadTables(mgr, train, features, 1)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(mgr, tables, Config{
			Pool: newPool(t, exec.Config{Workers: 1}), Epochs: 3, Lambda: 1e-5, Seed: 7, Mode: c.mode,
		})
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		for _, w := range res.Model {
			_ = binary.Write(h, binary.LittleEndian, math.Float64bits(w))
		}
		if got := h.Sum64(); got != c.want {
			t.Errorf("mode %d: model hash %#x, want %#x", c.mode, got, c.want)
		}
	}
}
