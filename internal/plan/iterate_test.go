package plan

import (
	"context"
	"errors"
	"testing"

	"db4ml/internal/exec"
	"db4ml/internal/isolation"
	"db4ml/internal/itx"
	"db4ml/internal/storage"
	"db4ml/internal/txn"
)

// TestIterateFailuresReleaseSnapshot: an iterate node that cannot run —
// no pool, or a table already attached to another uber-transaction —
// fails Execute without leaving a snapshot of its own pinned.
func TestIterateFailuresReleaseSnapshot(t *testing.T) {
	m := txn.NewManager()
	tbl := loadFact(t, m, "F", 8, 2)
	iso := isolation.Options{Level: isolation.Asynchronous}
	q := Iterate(IterateSpec{
		Table:     tbl,
		Isolation: iso,
		Build: func(storage.Timestamp) ([]itx.Sub, func(int) int, error) {
			t.Fatal("Build ran for an iterate node that cannot run")
			return nil, nil, nil
		},
	})
	execute := func(env Env) error {
		prep, err := Prepare(q, env)
		if err != nil {
			t.Fatal(err)
		}
		_, err = prep.Execute(context.Background())
		return err
	}

	if err := execute(Env{Mgr: m}); !errors.Is(err, exec.ErrNoPool) {
		t.Fatalf("iterate without a pool: err = %v, want exec.ErrNoPool", err)
	}
	if n := m.ActiveSnapshots(); n != 0 {
		t.Fatalf("%d snapshots pinned after the pool-less iterate failed", n)
	}

	holder, err := itx.BeginUber(m, iso)
	if err != nil {
		t.Fatal(err)
	}
	defer holder.Abort()
	if err := holder.Attach(tbl, nil, 1); err != nil {
		t.Fatal(err)
	}
	pool, err := exec.NewPool(exec.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	if err := execute(Env{Mgr: m, Pool: pool}); err == nil {
		t.Fatal("iterate over a table another uber-transaction holds succeeded")
	}
	if n := m.ActiveSnapshots(); n != 1 {
		t.Fatalf("%d snapshots pinned after the failed attach, want only the holder's", n)
	}
}
