package wal

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"db4ml/internal/storage"
	"db4ml/internal/table"
)

// FuzzWALReplay feeds arbitrary bytes to the segment scanner as the contents
// of a single WAL segment file. The scanner must never panic, never return a
// record with inconsistent shape (ragged rows), and must be prefix-monotone:
// whatever it decodes from a mutated file is a valid record sequence with
// dense LSNs starting at the segment's first LSN. Every decoded row must be
// capped at its own length — rows share one slab per record, so spare
// capacity would let an append to one row overwrite the next — and the
// records must re-encode and decode back equal, field by field.
func FuzzWALReplay(f *testing.F) {
	// Seed with a real segment containing all three record kinds.
	seedDir := f.TempDir()
	l, err := Open(Options{Dir: seedDir})
	if err != nil {
		f.Fatal(err)
	}
	seeds := []*Record{
		{Kind: KindCreateTable, Table: "t", Cols: []table.Column{
			{Name: "a", Type: table.Int64}, {Name: "b", Type: table.Float64}}},
		{Kind: KindLoad, TS: 1, Table: "t", FirstRow: 0,
			Rows: []storage.Payload{{1, 2}, {3, 4}}},
		{Kind: KindCommit, TS: 2, Tables: []TableUpdate{
			{Table: "t", Rows: []RowUpdate{{Row: 1, Payload: storage.Payload{9, 9}}}}}},
	}
	for _, r := range seeds {
		if err := l.Append(r); err != nil {
			f.Fatal(err)
		}
	}
	l.Close()
	segs, err := listSegments(seedDir)
	if err != nil || len(segs) != 1 {
		f.Fatalf("seed segment: %v %v", segs, err)
	}
	data, err := os.ReadFile(filepath.Join(seedDir, segs[0].name))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add(data[:len(data)/2])
	f.Add([]byte{})
	f.Add([]byte("D4WL"))

	f.Fuzz(func(t *testing.T, raw []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(1)), raw, 0o644); err != nil {
			t.Skip()
		}
		recs, err := Records(dir)
		if err != nil {
			return // I/O-level errors are fine; panics are not
		}
		want := uint64(1)
		for _, r := range recs {
			if r.LSN != want {
				t.Fatalf("non-dense LSN %d, want %d", r.LSN, want)
			}
			want++
			switch r.Kind {
			case KindCreateTable, KindLoad, KindCommit:
			default:
				t.Fatalf("decoded unknown kind %d", r.Kind)
			}
			for _, row := range r.Rows {
				if len(r.Rows) > 0 && len(row) != len(r.Rows[0]) {
					t.Fatal("ragged load rows survived decode")
				}
				if cap(row) != len(row) {
					t.Fatalf("load row has cap %d, len %d", cap(row), len(row))
				}
			}
			for _, tu := range r.Tables {
				for _, ru := range tu.Rows {
					if len(tu.Rows) > 0 && len(ru.Payload) != len(tu.Rows[0].Payload) {
						t.Fatal("ragged commit rows survived decode")
					}
					if cap(ru.Payload) != len(ru.Payload) {
						t.Fatalf("commit row has cap %d, len %d", cap(ru.Payload), len(ru.Payload))
					}
				}
			}
		}
		// Re-encoding what we decoded must replay to the same records.
		if len(recs) > 0 {
			dir2 := t.TempDir()
			l2, err := Open(Options{Dir: dir2})
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range recs {
				rc := *r
				rc.LSN = 0
				if err := l2.Append(&rc); err != nil {
					t.Fatalf("re-append of decoded record failed: %v", err)
				}
			}
			l2.Close()
			again, err := Records(dir2)
			if err != nil || len(again) != len(recs) {
				t.Fatalf("re-encoded replay: %d records, %v", len(again), err)
			}
			for i := range recs {
				if !reflect.DeepEqual(again[i], recs[i]) {
					t.Fatalf("record %d drifted through re-encoding:\n got %+v\nwant %+v", i, again[i], recs[i])
				}
			}
		}
	})
}
