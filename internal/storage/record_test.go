package storage

import (
	"sync"
	"testing"
	"unsafe"
)

func TestRecordVisibility(t *testing.T) {
	r := NewRecord(10, Payload{1})
	cases := []struct {
		ts   Timestamp
		want bool
	}{
		{0, false}, {9, false}, {10, true}, {100, true}, {InfTS - 1, true},
	}
	for _, c := range cases {
		if got := r.VisibleAt(c.ts); got != c.want {
			t.Errorf("VisibleAt(%d) = %v, want %v", c.ts, got, c.want)
		}
	}
	r.SetEnd(20)
	if r.VisibleAt(20) {
		t.Error("version visible at its End timestamp")
	}
	if !r.VisibleAt(19) {
		t.Error("version invisible just before its End timestamp")
	}
}

func TestChainInstallStampsEnd(t *testing.T) {
	v1 := NewRecord(5, Payload{1})
	c := NewVersionChain(v1)
	v2 := NewRecord(12, Payload{2})
	if !c.Install(v1, v2) {
		t.Fatal("Install with correct expected head failed")
	}
	if v1.End() != 12 {
		t.Fatalf("superseded version End = %d, want 12", v1.End())
	}
	if c.Head() != v2 || v2.Prev() != v1 {
		t.Fatal("chain head or Prev pointer wrong after Install")
	}
}

func TestChainInstallRejectsStaleExpected(t *testing.T) {
	v1 := NewRecord(5, Payload{1})
	c := NewVersionChain(v1)
	v2 := NewRecord(12, Payload{2})
	if !c.Install(v1, v2) {
		t.Fatal("first Install failed")
	}
	v3 := NewRecord(13, Payload{3})
	if c.Install(v1, v3) {
		t.Fatal("Install succeeded with stale expected head; first-committer-wins violated")
	}
	if c.Head() != v2 {
		t.Fatal("losing Install corrupted chain head")
	}
}

func TestChainVisibleAtTraversal(t *testing.T) {
	c := NewVersionChain(nil)
	if c.VisibleAt(100) != nil {
		t.Fatal("empty chain returned a version")
	}
	var prev *Record
	for i := 1; i <= 5; i++ {
		r := NewRecord(Timestamp(i*10), Payload{uint64(i)})
		if !c.Install(prev, r) {
			t.Fatalf("Install %d failed", i)
		}
		prev = r
	}
	cases := []struct {
		ts   Timestamp
		want uint64 // 0 means nil
	}{
		{5, 0}, {10, 1}, {19, 1}, {20, 2}, {35, 3}, {50, 5}, {1000, 5},
	}
	for _, cse := range cases {
		r := c.VisibleAt(cse.ts)
		switch {
		case cse.want == 0 && r != nil:
			t.Errorf("VisibleAt(%d) = version %v, want none", cse.ts, r.Payload)
		case cse.want != 0 && (r == nil || r.Payload[0] != cse.want):
			t.Errorf("VisibleAt(%d) = %v, want payload %d", cse.ts, r, cse.want)
		}
	}
}

func TestChainConcurrentInstallSingleWinner(t *testing.T) {
	base := NewRecord(1, Payload{0})
	c := NewVersionChain(base)
	const writers = 16
	var wg sync.WaitGroup
	wins := make([]bool, writers)
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := NewRecord(Timestamp(100+i), Payload{uint64(i)})
			wins[i] = c.Install(base, r)
		}(i)
	}
	wg.Wait()
	winners := 0
	for _, w := range wins {
		if w {
			winners++
		}
	}
	if winners != 1 {
		t.Fatalf("%d concurrent installs succeeded against the same head, want exactly 1", winners)
	}
	if c.Head().Prev() != base {
		t.Fatal("winning version does not link back to base")
	}
}

func TestIterativeVersionInvisibleUntilPublished(t *testing.T) {
	base := NewRecord(1, Payload{7})
	c := NewVersionChain(base)
	iter := NewIterativeVersion(Payload{7}, 3)
	if !c.Install(base, iter) {
		t.Fatal("Install of iterative version failed")
	}
	if got := c.VisibleAt(50); got != base {
		t.Fatalf("unpublished iterative version visible: got %+v", got)
	}
	iter.Publish(60)
	if got := c.VisibleAt(59); got != base {
		t.Fatal("iterative version visible before its Begin")
	}
	if got := c.VisibleAt(60); got != iter {
		t.Fatal("published iterative version not visible at its Begin")
	}
	if base.End() != 60 {
		t.Fatalf("predecessor End = %d after Publish, want 60", base.End())
	}
}

// TestRecordArenaChunks pins the arena's chunk at 64 KiB — a large-object
// size class with no per-object header — and its cost at one allocation
// per chunk: versions come out distinct, open-ended and carrying their
// payload.
func TestRecordArenaChunks(t *testing.T) {
	if got := unsafe.Sizeof(Record{}) * arenaChunk; got != 64<<10 {
		t.Fatalf("arena chunk is %d bytes, want 64 KiB", got)
	}
	var a RecordArena
	p := Payload{7}
	first, second := a.New(3, p), a.New(4, p)
	if first == second || first.Begin() != 3 || second.Begin() != 4 ||
		first.End() != InfTS || &first.Payload[0] != &p[0] {
		t.Fatalf("arena versions: %+v %+v", first, second)
	}
	a = RecordArena{}
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < 2*arenaChunk; i++ {
			a.New(1, p)
		}
	})
	if allocs != 2 {
		t.Fatalf("%v allocations for two chunks of versions, want 2", allocs)
	}
}

// TestSlabRowsCappedAtWidth: appending to one slab row must not overwrite
// the next.
func TestSlabRowsCappedAtWidth(t *testing.T) {
	s := NewSlab(2, 2)
	r0, r1 := s.Row(0), s.Row(1)
	r1[0] = 5
	if cap(r0) != 2 || len(r0) != 2 {
		t.Fatalf("row 0 len %d cap %d, want 2/2", len(r0), cap(r0))
	}
	_ = append(r0, 9)
	if r1[0] != 5 {
		t.Fatalf("append to row 0 overwrote row 1: %v", r1)
	}
}
