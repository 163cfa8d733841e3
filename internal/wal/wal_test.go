package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"db4ml/internal/chaos"
	"db4ml/internal/storage"
	"db4ml/internal/table"
)

func commitRec(ts storage.Timestamp, tbl string, row uint64, vals ...uint64) *Record {
	return &Record{
		Kind: KindCommit,
		TS:   ts,
		Tables: []TableUpdate{{
			Table: tbl,
			Rows:  []RowUpdate{{Row: row, Payload: storage.Payload(vals)}},
		}},
	}
}

func TestAppendAndReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	recs := []*Record{
		{Kind: KindCreateTable, Table: "m", Cols: []table.Column{
			{Name: "id", Type: table.Int64}, {Name: "w", Type: table.Float64}}},
		{Kind: KindLoad, Table: "m", TS: 1, FirstRow: 0,
			Rows: []storage.Payload{{1, 2}, {3, 4}, {5, 6}}},
		commitRec(2, "m", 1, 7, 8),
		commitRec(3, "m", 0, 9, 10),
	}
	for _, r := range recs {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	got, err := Records(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("replayed %d records, want %d", len(got), len(recs))
	}
	for i, g := range got {
		if g.LSN != uint64(i+1) {
			t.Fatalf("record %d has LSN %d", i, g.LSN)
		}
		if !reflect.DeepEqual(g, recs[i]) {
			t.Fatalf("record %d: got %+v want %+v", i, g, recs[i])
		}
	}
}

func TestConcurrentAppendsAssignDenseLSNs(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, Policy: SyncInterval})
	if err != nil {
		t.Fatal(err)
	}
	const G, N = 8, 50
	var wg sync.WaitGroup
	for g := 0; g < G; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < N; i++ {
				if err := l.Append(commitRec(storage.Timestamp(g*N+i+1), "t", uint64(g), uint64(i))); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := Records(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != G*N {
		t.Fatalf("replayed %d records, want %d", len(got), G*N)
	}
	for i, g := range got {
		if g.LSN != uint64(i+1) {
			t.Fatalf("record %d has LSN %d: not dense", i, g.LSN)
		}
	}
}

func TestReopenContinuesLSNs(t *testing.T) {
	dir := t.TempDir()
	l, _ := Open(Options{Dir: dir})
	for i := 1; i <= 3; i++ {
		if err := l.Append(commitRec(storage.Timestamp(i), "t", 0, uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	l2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if got := l2.NextLSN(); got != 4 {
		t.Fatalf("NextLSN after reopen = %d, want 4", got)
	}
	if err := l2.Append(commitRec(4, "t", 0, 4)); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	recs, err := Records(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 || recs[3].LSN != 4 {
		t.Fatalf("replay after reopen: %d records", len(recs))
	}
}

func TestTornTailTruncatedNotFatal(t *testing.T) {
	dir := t.TempDir()
	l, _ := Open(Options{Dir: dir})
	for i := 1; i <= 5; i++ {
		if err := l.Append(commitRec(storage.Timestamp(i), "t", 0, uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	// Tear the tail: chop bytes off the live segment, mid-frame.
	segs, err := listSegments(dir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments: %v %v", segs, err)
	}
	path := filepath.Join(dir, segs[0].name)
	info, _ := os.Stat(path)
	if err := os.Truncate(path, info.Size()-7); err != nil {
		t.Fatal(err)
	}

	recs, err := Records(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 {
		t.Fatalf("torn tail: replayed %d records, want 4", len(recs))
	}

	// Reopen truncates the tear and appends cleanly after it.
	l2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if got := l2.NextLSN(); got != 5 {
		t.Fatalf("NextLSN after tear = %d, want 5", got)
	}
	if err := l2.Append(commitRec(9, "t", 0, 99)); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	recs, _ = Records(dir)
	if len(recs) != 5 || recs[4].TS != 9 {
		t.Fatalf("replay after reopen-over-tear: %d records", len(recs))
	}
}

func TestCorruptFrameStopsReplay(t *testing.T) {
	dir := t.TempDir()
	l, _ := Open(Options{Dir: dir})
	for i := 1; i <= 3; i++ {
		if err := l.Append(commitRec(storage.Timestamp(i), "t", 0, uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	segs, _ := listSegments(dir)
	path := filepath.Join(dir, segs[0].name)
	data, _ := os.ReadFile(path)
	data[len(data)-3] ^= 0xff // flip a bit in the last record's payload
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	recs, err := Records(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("corrupt frame: replayed %d records, want 2", len(recs))
	}
}

func TestRollAndTruncateBelow(t *testing.T) {
	dir := t.TempDir()
	l, _ := Open(Options{Dir: dir})
	for i := 1; i <= 3; i++ {
		if err := l.Append(commitRec(storage.Timestamp(i), "t", 0, uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Roll(); err != nil {
		t.Fatal(err)
	}
	cut := l.NextLSN() // 4: records 1..3 live below the new segment
	for i := 4; i <= 6; i++ {
		if err := l.Append(commitRec(storage.Timestamp(i), "t", 0, uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	removed, err := l.TruncateBelow(cut)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 1 {
		t.Fatalf("TruncateBelow removed %d segments, want 1", removed)
	}
	l.Close()
	recs, err := Records(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || recs[0].LSN != 4 {
		t.Fatalf("after truncation: %d records, first LSN %v", len(recs), recs)
	}
	// The active segment is never deleted.
	if removed, _ := l.TruncateBelow(1 << 60); removed != 0 {
		t.Fatalf("active segment deleted (%d)", removed)
	}
}

// TestIdleRollIsNoOp rolls twice with nothing appended in between: the
// second roll would name a segment that already exists, so it must not
// create one, and the log must keep accepting appends.
func TestIdleRollIsNoOp(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := l.Roll(); err != nil {
			t.Fatalf("roll %d: %v", i, err)
		}
	}
	if err := l.Append(commitRec(1, "t", 0, 1)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	l2.Close()
	recs, err := Records(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].LSN != 1 {
		t.Fatalf("after idle rolls: %d records %v, want the one appended", len(recs), recs)
	}
}

func TestSegmentRollAtSizeThreshold(t *testing.T) {
	dir := t.TempDir()
	l, _ := Open(Options{Dir: dir, SegmentBytes: 256})
	for i := 1; i <= 20; i++ {
		if err := l.Append(commitRec(storage.Timestamp(i), "table-with-a-name", 0, uint64(i), uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	segs, _ := listSegments(dir)
	if len(segs) < 2 {
		t.Fatalf("no roll at size threshold: %d segments", len(segs))
	}
	recs, err := Records(dir)
	if err != nil || len(recs) != 20 {
		t.Fatalf("replay across segments: %d records, %v", len(recs), err)
	}
}

func TestAppendAfterFreezeFails(t *testing.T) {
	dir := t.TempDir()
	l, _ := Open(Options{Dir: dir})
	if err := l.Append(commitRec(1, "t", 0, 1)); err != nil {
		t.Fatal(err)
	}
	l.Freeze()
	if err := l.Append(commitRec(2, "t", 0, 2)); !errors.Is(err, chaos.ErrCrashed) {
		t.Fatalf("append after freeze: %v, want ErrCrashed", err)
	}
	l.Close()
	recs, _ := Records(dir)
	if len(recs) != 1 {
		t.Fatalf("%d records survived the freeze, want 1", len(recs))
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	l, _ := Open(Options{Dir: t.TempDir()})
	l.Close()
	if err := l.Append(commitRec(1, "t", 0, 1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: %v, want ErrClosed", err)
	}
}

func TestKillPointsProduceRecoverableLogs(t *testing.T) {
	for _, kp := range []chaos.CrashPoint{chaos.CrashMidWALAppend, chaos.CrashAfterWALAppend} {
		t.Run(kp.String(), func(t *testing.T) {
			dir := t.TempDir()
			k := chaos.NewKiller(kp)
			l, _ := Open(Options{Dir: dir, Policy: SyncAlways, Killer: k})
			// First append trips the kill-point.
			err := l.Append(commitRec(1, "t", 0, 1))
			if !errors.Is(err, chaos.ErrCrashed) {
				t.Fatalf("killed append returned %v, want ErrCrashed", err)
			}
			// Everything after is dead too.
			if err := l.Append(commitRec(2, "t", 0, 2)); !errors.Is(err, chaos.ErrCrashed) {
				t.Fatalf("post-crash append returned %v", err)
			}
			l.Close()

			recs, err := Records(dir)
			if err != nil {
				t.Fatal(err)
			}
			switch kp {
			case chaos.CrashMidWALAppend:
				// Torn frame: the record must be absent.
				if len(recs) != 0 {
					t.Fatalf("mid-append kill left %d records", len(recs))
				}
			case chaos.CrashAfterWALAppend:
				// Durable but unacknowledged: the record must be present.
				if len(recs) != 1 {
					t.Fatalf("after-append kill left %d records, want 1", len(recs))
				}
			}
			// A fresh Open over the debris must succeed and append cleanly.
			l2, err := Open(Options{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			if err := l2.Append(commitRec(5, "t", 0, 5)); err != nil {
				t.Fatal(err)
			}
			l2.Close()
		})
	}
}

func TestReplayIsDeterministic(t *testing.T) {
	dir := t.TempDir()
	l, _ := Open(Options{Dir: dir})
	for i := 1; i <= 10; i++ {
		if err := l.Append(commitRec(storage.Timestamp(i), fmt.Sprintf("t%d", i%3), uint64(i%4), uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	a, err := Records(dir)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Records(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two replays of the same log differ")
	}
}

func TestEncodeDecodeAllKinds(t *testing.T) {
	recs := []*Record{
		{Kind: KindCreateTable, LSN: 7, Table: "x", Cols: []table.Column{{Name: "a", Type: table.Int64}}},
		{Kind: KindLoad, LSN: 8, TS: 3, Table: "x", FirstRow: 5, Rows: []storage.Payload{{1}, {2}}},
		{Kind: KindCommit, LSN: 9, TS: 4, Tables: []TableUpdate{
			{Table: "x", Rows: []RowUpdate{{Row: 0, Payload: storage.Payload{42}}}},
			{Table: "y", Rows: []RowUpdate{}},
		}},
	}
	for _, r := range recs {
		b, err := encodePayload(r)
		if err != nil {
			t.Fatal(err)
		}
		got, err := decodePayload(b)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, r) {
			t.Fatalf("round trip: got %+v want %+v", got, r)
		}
	}
}

// TestRecoveredEqualsRecords builds a three-segment log, damages it three
// ways, and demands that the records Open hands recovery (Recovered) are
// field for field the read-only view Records gives of the same directory
// before Open truncates anything — and that the hand-off happens once.
func TestRecoveredEqualsRecords(t *testing.T) {
	build := func(t *testing.T) (string, []segInfo) {
		t.Helper()
		dir := t.TempDir()
		l, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		ts := storage.Timestamp(1)
		for seg := 0; seg < 3; seg++ {
			recs := []*Record{
				{Kind: KindCreateTable, Table: fmt.Sprintf("t%d", seg), Cols: []table.Column{
					{Name: "a", Type: table.Int64}, {Name: "b", Type: table.Float64}}},
				{Kind: KindLoad, TS: ts, Table: fmt.Sprintf("t%d", seg), FirstRow: 0,
					Rows: []storage.Payload{{1, 2}, {3, 4}, {5, 6}}},
				{Kind: KindCommit, TS: ts + 1, Tables: []TableUpdate{
					{Table: fmt.Sprintf("t%d", seg), Rows: []RowUpdate{
						{Row: 0, Payload: storage.Payload{7, 8}}, {Row: 2, Payload: storage.Payload{9, 10}}}}}},
			}
			ts += 2
			for _, r := range recs {
				if err := l.Append(r); err != nil {
					t.Fatal(err)
				}
			}
			if seg < 2 {
				if err := l.Roll(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		segs, err := listSegments(dir)
		if err != nil || len(segs) != 3 {
			t.Fatalf("segments %v, %v; want 3", segs, err)
		}
		return dir, segs
	}
	path := func(dir string, s segInfo) string { return filepath.Join(dir, s.name) }
	for _, tc := range []struct {
		name   string
		damage func(t *testing.T, dir string, segs []segInfo)
		want   int // records that survive the damage
	}{
		{"torn-tail", func(t *testing.T, dir string, segs []segInfo) {
			fi, err := os.Stat(path(dir, segs[2]))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(path(dir, segs[2]), fi.Size()-5); err != nil {
				t.Fatal(err)
			}
		}, 8},
		{"bit-flip-middle", func(t *testing.T, dir string, segs []segInfo) {
			data, err := os.ReadFile(path(dir, segs[1]))
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)/2] ^= 0x40
			if err := os.WriteFile(path(dir, segs[1]), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}, -1},
		{"middle-deleted", func(t *testing.T, dir string, segs []segInfo) {
			if err := os.Remove(path(dir, segs[1])); err != nil {
				t.Fatal(err)
			}
		}, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir, segs := build(t)
			tc.damage(t, dir, segs)
			want, err := Records(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(want) >= 9 || len(want) < 3 || (tc.want >= 0 && len(want) != tc.want) {
				t.Fatalf("damage left %d of 9 records, want %d", len(want), tc.want)
			}
			l, err := Open(Options{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			got := l.Recovered()
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("Recovered differs from Records:\n got %+v\nwant %+v", got, want)
			}
			if again := l.Recovered(); again != nil {
				t.Fatalf("second Recovered returned %d records, want none", len(again))
			}
			if l.NextLSN() != uint64(len(want))+1 {
				t.Fatalf("NextLSN %d after %d recovered records", l.NextLSN(), len(want))
			}
		})
	}
}
