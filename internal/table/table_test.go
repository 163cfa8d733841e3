package table

import (
	"sync"
	"testing"

	"db4ml/internal/partition"
	"db4ml/internal/storage"
)

func nodeSchema() Schema {
	return MustSchema(Column{"NodeID", Int64}, Column{"PR", Float64})
}

func newNodeTable(t *testing.T, n int) *Table {
	t.Helper()
	tbl := New("Node", nodeSchema())
	for i := 0; i < n; i++ {
		p := tbl.Schema().NewPayload()
		p.SetInt64(0, int64(i))
		p.SetFloat64(1, float64(i)/10)
		if _, err := tbl.Append(1, p); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

func TestAppendAndRead(t *testing.T) {
	tbl := newNodeTable(t, 10)
	if tbl.NumRows() != 10 {
		t.Fatalf("NumRows = %d, want 10", tbl.NumRows())
	}
	p, ok := tbl.Read(3, 5)
	if !ok {
		t.Fatal("Read of existing row failed")
	}
	if p.Int64(0) != 3 || p.Float64(1) != 0.3 {
		t.Fatalf("row 3 = %v", p)
	}
	if _, ok := tbl.Read(99, 5); ok {
		t.Fatal("Read of absent row succeeded")
	}
	if _, ok := tbl.Read(3, 0); ok {
		t.Fatal("row visible before its Begin timestamp")
	}
}

func TestAppendRejectsWrongWidth(t *testing.T) {
	tbl := New("Node", nodeSchema())
	if _, err := tbl.Append(1, storage.Payload{1}); err == nil {
		t.Fatal("Append with wrong payload width succeeded")
	}
}

func TestAppendClonesPayload(t *testing.T) {
	tbl := New("Node", nodeSchema())
	p := tbl.Schema().NewPayload()
	p.SetInt64(0, 7)
	id, _ := tbl.Append(1, p)
	p.SetInt64(0, 999) // caller reuses the buffer
	got, _ := tbl.Read(id, 2)
	if got.Int64(0) != 7 {
		t.Fatal("table aliased the caller's payload buffer")
	}
}

func TestReadReturnsCopy(t *testing.T) {
	tbl := newNodeTable(t, 1)
	p, _ := tbl.Read(0, 5)
	p.SetFloat64(1, 123)
	q, _ := tbl.Read(0, 5)
	if q.Float64(1) == 123 {
		t.Fatal("Read returned a payload aliasing storage")
	}
}

func TestScanVisitsVisibleRows(t *testing.T) {
	tbl := newNodeTable(t, 5)
	var ids []int64
	tbl.Scan(10, func(row RowID, p storage.Payload) bool {
		ids = append(ids, p.Int64(0))
		return true
	})
	if len(ids) != 5 {
		t.Fatalf("Scan visited %d rows, want 5", len(ids))
	}
	for i, id := range ids {
		if id != int64(i) {
			t.Fatalf("Scan order wrong: %v", ids)
		}
	}
	// Early stop.
	count := 0
	tbl.Scan(10, func(RowID, storage.Payload) bool {
		count++
		return count < 2
	})
	if count != 2 {
		t.Fatalf("Scan early stop visited %d rows", count)
	}
	// Nothing visible at ts 0.
	count = 0
	tbl.Scan(0, func(RowID, storage.Payload) bool { count++; return true })
	if count != 0 {
		t.Fatal("Scan at ts 0 visited rows appended at ts 1")
	}
}

func TestHashIndexLookup(t *testing.T) {
	tbl := newNodeTable(t, 100)
	if err := tbl.CreateHashIndex("NodeID"); err != nil {
		t.Fatal(err)
	}
	rows, err := tbl.Lookup("NodeID", 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0] != 42 {
		t.Fatalf("Lookup(42) = %v", rows)
	}
	// Index maintained on later Append.
	p := tbl.Schema().NewPayload()
	p.SetInt64(0, 1000)
	id, _ := tbl.Append(2, p)
	rows, _ = tbl.Lookup("NodeID", 1000)
	if len(rows) != 1 || rows[0] != id {
		t.Fatalf("Lookup after Append = %v, want [%d]", rows, id)
	}
	if _, err := tbl.Lookup("PR", 1); err == nil {
		t.Fatal("Lookup without index succeeded")
	}
	if err := tbl.CreateHashIndex("missing"); err == nil {
		t.Fatal("CreateHashIndex on missing column succeeded")
	}
}

func TestTreeIndexRange(t *testing.T) {
	tbl := newNodeTable(t, 50)
	if err := tbl.CreateTreeIndex("NodeID"); err != nil {
		t.Fatal(err)
	}
	idx := tbl.TreeIndex("NodeID")
	if idx == nil {
		t.Fatal("TreeIndex returned nil after creation")
	}
	var got []int64
	idx.Range(10, 14, func(k int64, row uint64) bool {
		got = append(got, k)
		if uint64(k) != row {
			t.Fatalf("tree index row mismatch: key %d row %d", k, row)
		}
		return true
	})
	if len(got) != 5 {
		t.Fatalf("Range scan returned %v", got)
	}
}

func TestMultiValueEdgeIndex(t *testing.T) {
	// Mirrors the paper's Edge table: index on NID_To with duplicates.
	edge := New("Edge", MustSchema(Column{"NID_From", Int64}, Column{"NID_To", Int64}))
	links := [][2]int64{{1, 2}, {2, 1}, {3, 1}, {4, 1}}
	for _, l := range links {
		p := edge.Schema().NewPayload()
		p.SetInt64(0, l[0])
		p.SetInt64(1, l[1])
		if _, err := edge.Append(1, p); err != nil {
			t.Fatal(err)
		}
	}
	if err := edge.CreateHashIndex("NID_To"); err != nil {
		t.Fatal(err)
	}
	rows, _ := edge.Lookup("NID_To", 1)
	if len(rows) != 3 {
		t.Fatalf("edges into node 1: %v, want 3 rows", rows)
	}
}

func TestPartitionerAssignment(t *testing.T) {
	tbl := newNodeTable(t, 100)
	tbl.SetPartitioner(partition.New(partition.Range, 4, 100))
	if tbl.PartitionOf(0) != 0 || tbl.PartitionOf(99) != 3 {
		t.Fatalf("range partitioning wrong: %d, %d", tbl.PartitionOf(0), tbl.PartitionOf(99))
	}
	if tbl.Partitioner().N() != 4 {
		t.Fatal("Partitioner not installed")
	}
}

func TestMVCCUpdateVisibility(t *testing.T) {
	tbl := newNodeTable(t, 1)
	c := tbl.Chain(0)
	head := c.Head()
	newer := storage.NewRecord(20, storage.Payload{0, 0})
	newer.Payload.SetFloat64(1, 9.9)
	if !c.Install(head, newer) {
		t.Fatal("Install failed")
	}
	old, _ := tbl.Read(0, 10)
	cur, _ := tbl.Read(0, 25)
	if old.Float64(1) != 0.0 {
		t.Fatalf("snapshot at 10 sees new version: %v", old)
	}
	if cur.Float64(1) != 9.9 {
		t.Fatalf("snapshot at 25 misses new version: %v", cur)
	}
}

func TestConcurrentAppendAndRead(t *testing.T) {
	tbl := New("Node", nodeSchema())
	var wg sync.WaitGroup
	const writers = 4
	const perW = 500
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				p := tbl.Schema().NewPayload()
				p.SetInt64(0, int64(w*perW+i))
				if _, err := tbl.Append(1, p); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 1000; i++ {
			n := tbl.NumRows()
			if n > 0 {
				if _, ok := tbl.Read(RowID(n-1), 5); !ok {
					// A row slot always has its first version by the
					// time NumRows includes it.
					t.Error("row slot visible in NumRows but unreadable")
					return
				}
			}
		}
	}()
	wg.Wait()
	<-done
	if tbl.NumRows() != writers*perW {
		t.Fatalf("NumRows = %d, want %d", tbl.NumRows(), writers*perW)
	}
}

// TestRowIDsPastTheTable: row ids at or past the row count — including ids
// that are negative as an int — name no row; they must not index the slot
// array.
func TestRowIDsPastTheTable(t *testing.T) {
	tbl := newNodeTable(t, 3)
	if err := tbl.StartIterative(5, 1, nil); err != nil {
		t.Fatal(err)
	}
	for _, row := range []RowID{3, 1 << 63, ^RowID(0)} {
		if c := tbl.Chain(row); c != nil {
			t.Fatalf("Chain(%d) = %p, want nil", row, c)
		}
		if p, ok := tbl.Read(row, 5); ok {
			t.Fatalf("Read(%d) = %v, want no row", row, p)
		}
		if ir := tbl.IterRecord(row); ir != nil {
			t.Fatalf("IterRecord(%d) = %p, want nil", row, ir)
		}
	}
}

// TestSlotsIsAStablePrefix: a Slots prefix taken before further appends
// keeps naming the same chains, and scans over it race with nothing.
func TestSlotsIsAStablePrefix(t *testing.T) {
	tbl := newNodeTable(t, 64)
	slots := tbl.Slots()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		p := tbl.Schema().NewPayload()
		for i := 0; i < 1000; i++ {
			if _, err := tbl.Append(1, p); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 20; i++ {
		n := 0
		tbl.Scan(5, func(RowID, storage.Payload) bool { n++; return true })
		if n < len(slots) {
			t.Fatalf("scan saw %d rows, fewer than the %d loaded", n, len(slots))
		}
	}
	wg.Wait()
	if len(slots) != 64 {
		t.Fatalf("Slots prefix grew to %d", len(slots))
	}
	for i, c := range slots {
		if tbl.Chain(RowID(i)) != c {
			t.Fatalf("row %d: Slots chain differs from Chain", i)
		}
	}
}

// TestAppendOwnedTombstonesAbsentSlots bulk-appends rows with an absent
// slot between them: the slot reads as missing, keeps the later row at its
// id, and gets no index entry — neither from the append nor from an index
// built afterwards (its tombstone's zero payload would index key 0).
func TestAppendOwnedTombstonesAbsentSlots(t *testing.T) {
	tbl := newNodeTable(t, 1)
	if err := tbl.CreateHashIndex("NodeID"); err != nil {
		t.Fatal(err)
	}
	rows := []storage.Payload{{0, 0}, nil, {2, 0}}
	first, err := tbl.AppendOwned(2, rows)
	if err != nil || first != 1 || tbl.NumRows() != 4 {
		t.Fatalf("AppendOwned = %d, %v; %d rows", first, err, tbl.NumRows())
	}
	if _, ok := tbl.Read(2, 2); ok {
		t.Fatal("absent slot reads as a row")
	}
	if p, ok := tbl.Read(3, 2); !ok || p.Int64(0) != 2 {
		t.Fatalf("row 3 = %v, %v", p, ok)
	}
	if err := tbl.CreateTreeIndex("NodeID"); err != nil {
		t.Fatal(err)
	}
	got, _ := tbl.Lookup("NodeID", 0)
	if len(got) != 2 {
		t.Fatalf("hash key 0 indexes rows %v, want [0 1]", got)
	}
	if row, _ := tbl.TreeIndex("NodeID").Get(0); row != 1 {
		t.Fatalf("tree key 0 indexes row %d, want 1", row)
	}
	if _, err := tbl.AppendOwned(3, []storage.Payload{{1}}); err == nil {
		t.Fatal("short row accepted")
	}
}
