package shard

import (
	"fmt"
	"sync"
	"testing"

	"db4ml/internal/exec"
	"db4ml/internal/partition"
	"db4ml/internal/storage"
	"db4ml/internal/table"
)

func testSchema(t *testing.T) table.Schema {
	t.Helper()
	s, err := table.NewSchema(
		table.Column{Name: "V", Type: table.Int64},
		table.Column{Name: "VTag", Type: table.Int64},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func newCluster(t *testing.T, n, workers int) *Cluster {
	t.Helper()
	c, err := NewCluster(n, exec.Config{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func TestTableLoadPlacesRowsAndBuildsView(t *testing.T) {
	c := newCluster(t, 2, 1)
	st := NewTable("ring", testSchema(t), NewRouter(partition.Range, 2, 0))
	rows := []storage.Payload{{10, 10}, {11, 11}, {12, 12}, {13, 13}}
	ts, _, err := st.Load(c, rows)
	if err != nil {
		t.Fatal(err)
	}
	if st.NumRows() != 4 || st.View().NumRows() != 4 {
		t.Fatalf("NumRows=%d view=%d, want 4", st.NumRows(), st.View().NumRows())
	}
	// Range over 4 rows, 2 shards: rows 0,1 on shard 0; rows 2,3 on shard 1.
	for g, wantShard := range []int{0, 0, 1, 1} {
		s, l, ok := st.Locate(table.RowID(g))
		if !ok || s != wantShard {
			t.Fatalf("Locate(%d) = (%d,%d,%v), want shard %d", g, s, l, ok, wantShard)
		}
		// The view and the owning local resolve the same payload — and the
		// same chain, so this is identity, not equality of copies.
		if st.View().Chain(table.RowID(g)) != st.Local(s).Chain(l) {
			t.Fatalf("row %d: view chain != local chain", g)
		}
		p, ok := st.View().Read(table.RowID(g), ts)
		if !ok || p[0] != uint64(10+g) {
			t.Fatalf("view read row %d = %v,%v", g, p, ok)
		}
	}
	// Every shard's stable watermark advanced to the one load timestamp.
	for i := 0; i < c.Shards(); i++ {
		if got := c.Kernel(i).Mgr().Stable(); got != ts {
			t.Fatalf("shard %d stable = %d, want %d", i, got, ts)
		}
	}
	// The view is a view: it must refuse to grow on its own.
	if _, err := st.View().Append(ts, storage.Payload{0, 0}); err == nil {
		t.Fatal("view Append succeeded, want error")
	}
}

func TestPublishAllIsGloballyAtomic(t *testing.T) {
	c := newCluster(t, 3, 1)
	before := make([]storage.Timestamp, 3)
	for i := range before {
		before[i] = c.Kernel(i).Mgr().Stable()
	}
	ts, err := c.PublishAll(func(shard int, ts storage.Timestamp) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if got := c.Kernel(i).Mgr().Stable(); got != ts {
			t.Fatalf("shard %d stable = %d, want %d", i, got, ts)
		}
	}
}

// TestRouterRouteRepartitionRace drives concurrent Route and Repartition
// calls; under -race this proves the atomic-swap design has no torn reads.
func TestRouterRouteRepartitionRace(t *testing.T) {
	r := NewRouter(partition.Range, 4, 100)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for row := uint64(0); ; row++ {
				select {
				case <-stop:
					return
				default:
				}
				if s := r.Route(row % 500); s < 0 || s >= 4 {
					panic(fmt.Sprintf("route escaped: %d", s))
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		schemes := []partition.Scheme{partition.Range, partition.Hash, partition.RoundRobin}
		for i := 0; i < 2000; i++ {
			r.Repartition(schemes[i%len(schemes)], uint64(i%300))
		}
		close(stop)
	}()
	wg.Wait()
	if r.Shards() != 4 {
		t.Fatalf("Shards() changed to %d", r.Shards())
	}
}

// TestOneShardTableIsItsOwnView: on one shard the view is the local table
// and keeps the table's name, Locate is the identity, a load appends
// straight to it and reports its first row, and the table accepts Append
// like any table.
func TestOneShardTableIsItsOwnView(t *testing.T) {
	c := newCluster(t, 1, 1)
	st := NewTable("ring", testSchema(t), NewRouter(partition.Hash, 1, 0))
	if st.View() != st.Local(0) || st.View().Name() != "ring" {
		t.Fatalf("view %p (%s), local %p", st.View(), st.View().Name(), st.Local(0))
	}
	for _, want := range []int{0, 2} {
		_, first, err := st.Load(c, []storage.Payload{{1, 1}, {2, 2}})
		if err != nil || first != want {
			t.Fatalf("Load first row = %d (%v), want %d", first, err, want)
		}
	}
	if s, l, ok := st.Locate(3); s != 0 || l != 3 || !ok || st.NumRows() != 4 {
		t.Fatalf("Locate(3) = (%d,%d,%v), %d rows", s, l, ok, st.NumRows())
	}
	if _, _, ok := st.Locate(4); ok {
		t.Fatal("Locate past the end succeeded")
	}
	if _, err := st.View().Append(c.Kernel(0).Mgr().Stable(), storage.Payload{5, 5}); err != nil {
		t.Fatalf("Append on a one-shard table: %v", err)
	}
	if err := st.LoadAt(c, c.Kernel(0).Mgr().Stable()+1, []storage.Payload{{6, 6}, nil}); err != nil || st.NumRows() != 7 {
		t.Fatalf("LoadAt: %v, %d rows", err, st.NumRows())
	}
}
