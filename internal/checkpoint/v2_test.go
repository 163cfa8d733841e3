package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"db4ml/internal/alloctest"
	"db4ml/internal/storage"
	"db4ml/internal/table"
)

func buildTable(t *testing.T, name string, rows int) *table.Table {
	t.Helper()
	schema, err := table.NewSchema(
		table.Column{Name: "id", Type: table.Int64},
		table.Column{Name: "w", Type: table.Float64},
	)
	if err != nil {
		t.Fatal(err)
	}
	tbl := table.New(name, schema)
	for i := 0; i < rows; i++ {
		if _, err := tbl.Append(1, storage.Payload{uint64(i), uint64(i * 10)}); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

func TestTypedErrorOnBitFlip(t *testing.T) {
	tbl := buildTable(t, "m", 8)
	var buf bytes.Buffer
	if err := Save(&buf, tbl, 1); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Flip one bit in every byte position in turn; each mutation must yield
	// a typed error or (for meta-only positions) still decode — never panic.
	for i := range data {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x10
		_, _, err := ReadStream(bytes.NewReader(mut))
		if err == nil {
			continue // e.g. a flip inside the version byte's unused bits won't always be fatal — but
		}
		if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrVersion) {
			t.Fatalf("flip at byte %d: untyped error %v", i, err)
		}
	}
}

func TestPayloadBitFlipIsErrCorrupt(t *testing.T) {
	tbl := buildTable(t, "m", 8)
	var buf bytes.Buffer
	if err := Save(&buf, tbl, 1); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[len(data)-5] ^= 0xff // inside the last row's payload → CRC mismatch
	_, _, err := ReadStream(bytes.NewReader(data))
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("payload bit flip: %v, want ErrCorrupt", err)
	}
}

func TestWrongVersionIsErrVersion(t *testing.T) {
	tbl := buildTable(t, "m", 2)
	var buf bytes.Buffer
	if err := Save(&buf, tbl, 1); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[4] = 77
	_, _, err := ReadStream(bytes.NewReader(data))
	if !errors.Is(err, ErrVersion) {
		t.Fatalf("foreign version: %v, want ErrVersion", err)
	}
}

func TestTruncationIsErrTruncated(t *testing.T) {
	tbl := buildTable(t, "m", 16)
	var buf bytes.Buffer
	if err := Save(&buf, tbl, 1); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, cut := range []int{3, 5, 9, 20, len(data) / 2, len(data) - 1} {
		_, _, err := ReadStream(bytes.NewReader(data[:cut]))
		if !errors.Is(err, ErrTruncated) {
			t.Fatalf("cut at %d: %v, want ErrTruncated", cut, err)
		}
	}
}

func TestIndexDefinitionsPersist(t *testing.T) {
	tbl := buildTable(t, "m", 4)
	if err := tbl.CreateHashIndex("id"); err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateTreeIndex("w"); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, tbl, 1); err != nil {
		t.Fatal(err)
	}
	_, tables, err := ReadStream(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 {
		t.Fatalf("%d tables", len(tables))
	}
	if !reflect.DeepEqual(tables[0].HashIdx, []string{"id"}) {
		t.Fatalf("hash indexes %v", tables[0].HashIdx)
	}
	if !reflect.DeepEqual(tables[0].TreeIdx, []string{"w"}) {
		t.Fatalf("tree indexes %v", tables[0].TreeIdx)
	}
	rebuilt, err := tables[0].Build(1)
	if err != nil {
		t.Fatal(err)
	}
	gotHash, gotTree := rebuilt.IndexDefs()
	if !reflect.DeepEqual(gotHash, []string{"id"}) || !reflect.DeepEqual(gotTree, []string{"w"}) {
		t.Fatalf("rebuilt indexes: hash %v tree %v", gotHash, gotTree)
	}
}

func TestMultiTableStream(t *testing.T) {
	a := buildTable(t, "alpha", 3)
	b := buildTable(t, "beta", 5)
	var buf bytes.Buffer
	meta := Meta{TS: 7, LSN: 42}
	sections := [][]byte{EncodeTable(a, 7), EncodeTable(b, 7)}
	if err := WriteStream(&buf, meta, sections); err != nil {
		t.Fatal(err)
	}
	gotMeta, tables, err := ReadStream(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if gotMeta != meta {
		t.Fatalf("meta %+v, want %+v", gotMeta, meta)
	}
	if len(tables) != 2 || tables[0].Name != "alpha" || tables[1].Name != "beta" {
		t.Fatalf("tables %+v", tables)
	}
	if len(tables[0].Rows) != 3 || len(tables[1].Rows) != 5 {
		t.Fatalf("row counts %d/%d", len(tables[0].Rows), len(tables[1].Rows))
	}
}

func TestMissingSectionIsErrTruncated(t *testing.T) {
	a := buildTable(t, "alpha", 3)
	var buf bytes.Buffer
	// Meta promises two sections but only one follows.
	if err := WriteStream(&buf, Meta{TS: 1}, [][]byte{EncodeTable(a, 1)}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Patch the meta frame's table count from 1 to 2 and re-CRC it by
	// rebuilding the stream by hand: simpler to just write meta for 2 tables.
	var buf2 bytes.Buffer
	if err := WriteStream(&buf2, Meta{TS: 1}, [][]byte{EncodeTable(a, 1), EncodeTable(a, 1)}); err != nil {
		t.Fatal(err)
	}
	short := buf2.Bytes()[:len(data)] // cut the second section off
	_, _, err := ReadStream(bytes.NewReader(short))
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("missing section: %v, want ErrTruncated", err)
	}
}

func TestStoreWriteAndLatestValid(t *testing.T) {
	dir := t.TempDir()
	tbl := buildTable(t, "m", 4)

	if _, err := WriteFile(dir, 1, Meta{TS: 5, LSN: 10}, [][]byte{EncodeTable(tbl, 5)}); err != nil {
		t.Fatal(err)
	}
	if _, err := WriteFile(dir, 2, Meta{TS: 9, LSN: 20}, [][]byte{EncodeTable(tbl, 9)}); err != nil {
		t.Fatal(err)
	}
	// A torn file at seq 3 — the debris of a crash mid-checkpoint.
	if err := os.WriteFile(filepath.Join(dir, FileName(3)), []byte("DB4M\x02torn"), 0o644); err != nil {
		t.Fatal(err)
	}

	got, err := LatestValid(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got == nil || got.Seq != 2 || got.Meta.LSN != 20 {
		t.Fatalf("LatestValid = %+v, want seq 2", got)
	}

	// NextSeq counts the torn file: no sequence reuse.
	seq, err := NextSeq(dir)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 4 {
		t.Fatalf("NextSeq = %d, want 4", seq)
	}
}

func TestLatestValidEmptyDir(t *testing.T) {
	got, err := LatestValid(t.TempDir())
	if err != nil || got != nil {
		t.Fatalf("empty dir: %+v, %v", got, err)
	}
	got, err = LatestValid(filepath.Join(t.TempDir(), "missing"))
	if err != nil || got != nil {
		t.Fatalf("missing dir: %+v, %v", got, err)
	}
	seq, err := NextSeq(t.TempDir())
	if err != nil || seq != 1 {
		t.Fatalf("NextSeq empty = %d, %v", seq, err)
	}
}

// deleteRow tombstones row at ts, as a committed Txn.Delete would.
func deleteRow(t *testing.T, tbl *table.Table, row table.RowID, ts storage.Timestamp) {
	t.Helper()
	c := tbl.Chain(row)
	rec := storage.NewRecord(ts, tbl.Schema().NewPayload())
	rec.Deleted = true
	if !c.Install(c.Head(), rec) {
		t.Fatal("tombstone install lost")
	}
}

// TestAbsentSlotsRoundTrip checkpoints a table with a deleted middle row,
// a deleted last row, and a row appended after the cut: the section keeps
// both deleted slots as absent ids, leaves the later row out entirely, and
// a rebuild puts every present row back at its own id.
func TestAbsentSlotsRoundTrip(t *testing.T) {
	tbl := buildTable(t, "m", 8)
	deleteRow(t, tbl, 2, 2)
	deleteRow(t, tbl, 7, 2)
	if _, err := tbl.Append(5, storage.Payload{8, 80}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, tbl, 3); err != nil {
		t.Fatal(err)
	}
	_, tables, err := ReadStream(&buf)
	if err != nil {
		t.Fatal(err)
	}
	d := tables[0]
	if len(d.Rows) != 6 || !reflect.DeepEqual(d.Absent, []uint64{2, 7}) {
		t.Fatalf("%d rows, absent %v; want 6 rows, absent [2 7]", len(d.Rows), d.Absent)
	}
	rebuilt, err := d.Build(3)
	if err != nil {
		t.Fatal(err)
	}
	if rebuilt.NumRows() != 8 {
		t.Fatalf("rebuilt %d row slots, want 8", rebuilt.NumRows())
	}
	for i := 0; i < 8; i++ {
		p, ok := rebuilt.Read(table.RowID(i), 3)
		if absent := i == 2 || i == 7; absent == ok {
			t.Fatalf("row %d present %v", i, ok)
		}
		if ok && p[0] != uint64(i) {
			t.Fatalf("row %d reads id %d", i, p[0])
		}
	}
}

// TestV2StreamStillDecodes reads a stream in the previous format, whose
// sections end at the rows: it decodes with no absent slots.
func TestV2StreamStillDecodes(t *testing.T) {
	tbl := buildTable(t, "m", 4)
	sec := EncodeTable(tbl, 1)
	var buf bytes.Buffer
	buf.Write(magic[:])
	buf.WriteByte(2)
	var m encBuf
	m.u64(1)
	m.u64(7)
	m.u32(1)
	if err := writeFrame(&buf, m.b); err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(&buf, sec[:len(sec)-8]); err != nil { // drop the v3 slot count
		t.Fatal(err)
	}
	meta, tables, err := ReadStream(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if meta.LSN != 7 || len(tables) != 1 || len(tables[0].Rows) != 4 || tables[0].Absent != nil {
		t.Fatalf("v2 decode: meta %+v, %d tables", meta, len(tables))
	}
}

// TestBadAbsentTrailerIsErrCorrupt patches a section's slot count and
// absent ids into shapes no encoder writes.
func TestBadAbsentTrailerIsErrCorrupt(t *testing.T) {
	tbl := buildTable(t, "m", 4)
	deleteRow(t, tbl, 1, 2)
	sec := EncodeTable(tbl, 3) // 3 rows, slots 4, absent [1]
	for name, patch := range map[string]func(b []byte){
		"slots-below-rows": func(b []byte) { binary.LittleEndian.PutUint64(b[len(b)-16:], 2) },
		"id-past-slots":    func(b []byte) { binary.LittleEndian.PutUint64(b[len(b)-8:], 4) },
		"missing-ids":      func(b []byte) { binary.LittleEndian.PutUint64(b[len(b)-16:], 5) },
	} {
		b := append([]byte(nil), sec...)
		patch(b)
		var buf bytes.Buffer
		if err := WriteStream(&buf, Meta{TS: 3}, [][]byte{b}); err != nil {
			t.Fatal(err)
		}
		if _, _, err := ReadStream(&buf); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: %v, want ErrCorrupt", name, err)
		}
	}
}

// TestTornHugeFrameAllocatesOnlyWhatArrives reads a stream whose meta frame
// claims 64 MiB but holds a few bytes: the reader must report ErrTruncated
// without first allocating the claimed length.
func TestTornHugeFrameAllocatesOnlyWhatArrives(t *testing.T) {
	var head [frameHeadLen]byte
	binary.LittleEndian.PutUint32(head[0:], 64<<20)
	stream := append(append([]byte("DB4M\x03"), head[:]...), "torn"...)
	var err error
	got := alloctest.Min(3, func() func() {
		return func() { _, _, err = ReadStream(bytes.NewReader(stream)) }
	}).Bytes
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("torn huge frame: %v, want ErrTruncated", err)
	}
	if got > 1<<20 {
		t.Fatalf("reading a 4-byte torn frame allocated %d bytes", got)
	}
}
