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
	ts, err := st.Load(c, rows)
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
