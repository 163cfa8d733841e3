// Package checkpoint persists ML-table snapshots and restores them, so
// trained models and loaded datasets survive process restarts. The paper's
// prototype is purely in-memory; this is the natural extension its Section 1
// hints at ("can be extended towards disk-based DBMSs").
//
// Format v3 is a CRC32C-framed, little-endian, length-prefixed stream:
//
//	magic "DB4M" | version byte (3)
//	frame{ meta: ts u64, lsn u64, ntables u32 }
//	frame{ table section } × ntables
//
// where each frame is [payload length u32][crc32c(payload) u32][payload],
// and a table section is
//
//	name | ncols u32 | (name, type u8) × ncols | hash-index columns |
//	tree-index columns | nrows u64 | row × nrows | slots u64 |
//	absent row id u64 × (slots − nrows)
//
// A row is the full-row payload visible at the checkpoint timestamp, in
// row-id order. slots is the table's row-slot count at the checkpoint and
// the absent ids (ascending) name the slots that hold no row there —
// deleted, or reclaimed whole by the version GC — so a restore puts a
// tombstone in each and every row keeps its id. v2 streams, whose sections
// end at the rows, still decode: their tables have no absent slots (v2
// compacted a table past its deleted rows). Index definitions are
// persisted since v2. A bit-flipped or truncated stream yields ErrCorrupt
// or ErrTruncated — never a panic, never a half-loaded table.
//
// The meta frame's LSN ties a checkpoint to the write-ahead log
// (internal/wal): recovery loads the checkpoint, then replays only WAL
// records the checkpoint does not already cover.
package checkpoint

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"db4ml/internal/storage"
	"db4ml/internal/table"
	"db4ml/internal/txn"
)

// magic identifies checkpoint streams; the version byte guards layout
// changes.
var magic = [4]byte{'D', 'B', '4', 'M'}

const formatVersion = 3

var (
	// ErrTruncated marks a stream that ends mid-frame or with fewer table
	// sections than its meta frame promised.
	ErrTruncated = errors.New("checkpoint: truncated stream")
	// ErrCorrupt marks a frame whose CRC or structure does not check out.
	ErrCorrupt = errors.New("checkpoint: corrupt stream")
	// ErrVersion marks a stream written by an unsupported format version.
	ErrVersion = errors.New("checkpoint: unsupported format version")
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

const (
	frameHeadLen  = 8
	maxPayloadLen = 1 << 30 // a section holds a full table snapshot
	maxCount      = 1 << 24
)

// Meta is the checkpoint-wide header: the snapshot timestamp every section
// was scanned at, and the WAL LSN the checkpoint covers up to (records with
// LSN below it are fully reflected in the sections).
type Meta struct {
	TS  storage.Timestamp
	LSN uint64
}

// Decoded is one table section read back from a stream, ready to rebuild.
// Rows are the rows present at the checkpoint in row-id order, carved from
// one slab; Absent are the ids of the row slots that hold no row there.
type Decoded struct {
	Name    string
	Cols    []table.Column
	HashIdx []string
	TreeIdx []string
	Rows    []storage.Payload
	Absent  []uint64
}

// Slots lays the section out by row id, one entry per row slot, with nil at
// each absent slot — the input table.Table.AppendOwned restores from.
// Without absent slots it is Rows itself.
func (d *Decoded) Slots() []storage.Payload {
	if len(d.Absent) == 0 {
		return d.Rows
	}
	out := make([]storage.Payload, len(d.Rows)+len(d.Absent))
	rows, absent := d.Rows, d.Absent
	for i := range out {
		if len(absent) > 0 && absent[0] == uint64(i) {
			absent = absent[1:]
			continue
		}
		out[i], rows = rows[0], rows[1:]
	}
	return out
}

// Build materializes the decoded section as a fresh table whose rows are
// all visible from ts on, absent slots tombstoned, with the persisted
// secondary indexes recreated. The table takes ownership of the decoded
// payloads.
func (d *Decoded) Build(ts storage.Timestamp) (*table.Table, error) {
	schema, err := table.NewSchema(d.Cols...)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	tbl := table.New(d.Name, schema)
	if _, err := tbl.AppendOwned(ts, d.Slots()); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	if err := d.CreateIndexes(tbl); err != nil {
		return nil, err
	}
	return tbl, nil
}

// CreateIndexes recreates the section's persisted secondary indexes on tbl.
func (d *Decoded) CreateIndexes(tbl *table.Table) error {
	for _, col := range d.HashIdx {
		if err := tbl.CreateHashIndex(col); err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
	}
	for _, col := range d.TreeIdx {
		if err := tbl.CreateTreeIndex(col); err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
	}
	return nil
}

// --- encoding ---

type encBuf struct{ b []byte }

func (e *encBuf) u8(v uint8)   { e.b = append(e.b, v) }
func (e *encBuf) u32(v uint32) { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *encBuf) u64(v uint64) { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *encBuf) str(s string) {
	e.u32(uint32(len(s)))
	e.b = append(e.b, s...)
}
func (e *encBuf) strs(ss []string) {
	e.u32(uint32(len(ss)))
	for _, s := range ss {
		e.str(s)
	}
}

// EncodeTable renders one table's section payload: the schema, the index
// definitions, every row visible at ts, and the row slots that hold no row
// at ts. The returned bytes are position-independent, so the fuzzy
// checkpointer caches them across passes for tables whose mutation counter
// has not moved.
func EncodeTable(tbl *table.Table, ts storage.Timestamp) []byte {
	var e encBuf
	e.str(tbl.Name())
	cols := tbl.Schema().Columns()
	e.u32(uint32(len(cols)))
	for _, c := range cols {
		e.str(c.Name)
		e.u8(uint8(c.Type))
	}
	hash, tree := tbl.IndexDefs()
	e.strs(hash)
	e.strs(tree)
	nrowsAt := len(e.b)
	e.u64(0) // row count, patched below
	var n, slots uint64
	var absent []uint64
	for i, c := range tbl.Slots() {
		rec := c.VisibleAt(ts)
		if rec != nil && !rec.Deleted {
			for _, w := range rec.Payload {
				e.u64(w)
			}
			n++
			slots = uint64(i) + 1
			continue
		}
		absent = append(absent, uint64(i))
		if rec != nil || c.Head() == nil {
			// Deleted at ts, or reclaimed whole by the GC: a slot at ts.
			// A chain with no version at or before ts is a slot only if a
			// later one is — otherwise it was appended after the cut.
			slots = uint64(i) + 1
		}
	}
	binary.LittleEndian.PutUint64(e.b[nrowsAt:], n)
	e.u64(slots)
	for _, id := range absent {
		if id >= slots {
			break
		}
		e.u64(id)
	}
	return e.b
}

func writeFrame(w io.Writer, payload []byte) error {
	var head [frameHeadLen]byte
	binary.LittleEndian.PutUint32(head[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(head[4:], crc32.Checksum(payload, castagnoli))
	if _, err := w.Write(head[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// WriteStream writes a complete checkpoint stream: magic, version, meta
// frame, then one frame per section (from EncodeTable).
func WriteStream(w io.Writer, meta Meta, sections [][]byte) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic[:]); err != nil {
		return err
	}
	if err := bw.WriteByte(formatVersion); err != nil {
		return err
	}
	var m encBuf
	m.u64(uint64(meta.TS))
	m.u64(meta.LSN)
	m.u32(uint32(len(sections)))
	if err := writeFrame(bw, m.b); err != nil {
		return err
	}
	for _, s := range sections {
		if err := writeFrame(bw, s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// --- decoding ---

type decBuf struct {
	b   []byte
	off int
}

func (d *decBuf) remaining() int { return len(d.b) - d.off }

func (d *decBuf) u8() (uint8, error) {
	if d.remaining() < 1 {
		return 0, ErrCorrupt
	}
	v := d.b[d.off]
	d.off++
	return v, nil
}

func (d *decBuf) u32() (uint32, error) {
	if d.remaining() < 4 {
		return 0, ErrCorrupt
	}
	v := binary.LittleEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v, nil
}

func (d *decBuf) u64() (uint64, error) {
	if d.remaining() < 8 {
		return 0, ErrCorrupt
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v, nil
}

func (d *decBuf) str() (string, error) {
	n, err := d.u32()
	if err != nil {
		return "", err
	}
	if n > 1<<20 || int(n) > d.remaining() {
		return "", ErrCorrupt
	}
	s := string(d.b[d.off : d.off+int(n)])
	d.off += int(n)
	return s, nil
}

func (d *decBuf) strs() ([]string, error) {
	n, err := d.u32()
	if err != nil {
		return nil, err
	}
	if n > maxCount || uint64(n) > uint64(d.remaining()/4) {
		return nil, ErrCorrupt
	}
	out := make([]string, n)
	for i := range out {
		if out[i], err = d.str(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// absent reads a v3 section's trailer — the slot count and the ascending
// ids of the slots that hold none of the section's nrows rows.
func (d *decBuf) absent(nrows uint64) ([]uint64, error) {
	slots, err := d.u64()
	if err != nil {
		return nil, err
	}
	if slots < nrows || slots > maxCount || slots-nrows != uint64(d.remaining()/8) {
		return nil, fmt.Errorf("%w: implausible slot count %d for %d rows", ErrCorrupt, slots, nrows)
	}
	if slots == nrows {
		return nil, nil
	}
	out := make([]uint64, slots-nrows)
	for i := range out {
		if out[i], err = d.u64(); err != nil {
			return nil, err
		}
		if out[i] >= slots || (i > 0 && out[i] <= out[i-1]) {
			return nil, fmt.Errorf("%w: absent row id %d out of order", ErrCorrupt, out[i])
		}
	}
	return out, nil
}

// readFrame reads one frame, verifying length sanity and CRC. io.EOF at a
// frame boundary is returned as-is so callers can distinguish "stream ended
// cleanly" from "stream tore mid-frame" (ErrTruncated).
func readFrame(r io.Reader) ([]byte, error) {
	var head [frameHeadLen]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, ErrTruncated
	}
	plen := binary.LittleEndian.Uint32(head[0:])
	crc := binary.LittleEndian.Uint32(head[4:])
	if plen > maxPayloadLen {
		return nil, fmt.Errorf("%w: frame length %d", ErrCorrupt, plen)
	}
	// The length prefix is untrusted until its bytes arrive: the buffer
	// grows with what is actually read, so a torn stream claiming a huge
	// frame cannot demand that much memory up front.
	var buf bytes.Buffer
	if _, err := io.CopyN(&buf, r, int64(plen)); err != nil {
		return nil, ErrTruncated
	}
	payload := buf.Bytes()
	if crc32.Checksum(payload, castagnoli) != crc {
		return nil, fmt.Errorf("%w: frame crc mismatch", ErrCorrupt)
	}
	return payload, nil
}

// decodeSection parses one table-section payload of format version ver.
// Every length is validated against the remaining bytes before allocation;
// hostile input cannot panic or balloon memory.
func decodeSection(b []byte, ver byte) (*Decoded, error) {
	d := decBuf{b: b}
	out := &Decoded{}
	var err error
	if out.Name, err = d.str(); err != nil {
		return nil, err
	}
	nc, err := d.u32()
	if err != nil {
		return nil, err
	}
	if nc > 1<<16 || uint64(nc) > uint64(d.remaining()/5) {
		return nil, fmt.Errorf("%w: implausible column count %d", ErrCorrupt, nc)
	}
	out.Cols = make([]table.Column, nc)
	for i := range out.Cols {
		if out.Cols[i].Name, err = d.str(); err != nil {
			return nil, err
		}
		t, err := d.u8()
		if err != nil {
			return nil, err
		}
		if table.ColType(t) != table.Int64 && table.ColType(t) != table.Float64 {
			return nil, fmt.Errorf("%w: unknown column type %d", ErrCorrupt, t)
		}
		out.Cols[i].Type = table.ColType(t)
	}
	if out.HashIdx, err = d.strs(); err != nil {
		return nil, err
	}
	if out.TreeIdx, err = d.strs(); err != nil {
		return nil, err
	}
	nr, err := d.u64()
	if err != nil {
		return nil, err
	}
	width := len(out.Cols)
	if width == 0 && nr > 0 {
		return nil, fmt.Errorf("%w: rows without columns", ErrCorrupt)
	}
	if nr > maxCount || (width > 0 && nr > uint64(d.remaining()/(width*8))) {
		return nil, fmt.Errorf("%w: implausible row count %d", ErrCorrupt, nr)
	}
	out.Rows = make([]storage.Payload, nr)
	slab := storage.NewSlab(int(nr), width)
	for i := range out.Rows {
		p := slab.Row(i)
		for j := range p {
			if p[j], err = d.u64(); err != nil {
				return nil, err
			}
		}
		out.Rows[i] = p
	}
	if ver >= 3 {
		if out.Absent, err = d.absent(nr); err != nil {
			return nil, err
		}
	}
	if d.remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes in section", ErrCorrupt, d.remaining())
	}
	return out, nil
}

// ReadStream parses a complete checkpoint stream. It returns ErrVersion for
// other format versions, ErrCorrupt for CRC/structure failures, and
// ErrTruncated when the stream ends before the promised sections — never a
// partial result.
func ReadStream(r io.Reader) (Meta, []*Decoded, error) {
	br := bufio.NewReader(r)
	var meta Meta
	var m [4]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return meta, nil, ErrTruncated
	}
	if m != magic {
		return meta, nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, m)
	}
	ver, err := br.ReadByte()
	if err != nil {
		return meta, nil, ErrTruncated
	}
	if ver != 2 && ver != formatVersion {
		return meta, nil, fmt.Errorf("%w: %d (want 2 or %d)", ErrVersion, ver, formatVersion)
	}
	mb, err := readFrame(br)
	if err != nil {
		if err == io.EOF {
			return meta, nil, ErrTruncated
		}
		return meta, nil, err
	}
	md := decBuf{b: mb}
	ts, err := md.u64()
	if err != nil {
		return meta, nil, err
	}
	lsn, err := md.u64()
	if err != nil {
		return meta, nil, err
	}
	nt, err := md.u32()
	if err != nil {
		return meta, nil, err
	}
	if md.remaining() != 0 {
		return meta, nil, fmt.Errorf("%w: trailing bytes in meta frame", ErrCorrupt)
	}
	if nt > 1<<16 {
		return meta, nil, fmt.Errorf("%w: implausible table count %d", ErrCorrupt, nt)
	}
	meta.TS = storage.Timestamp(ts)
	meta.LSN = lsn
	tables := make([]*Decoded, 0, nt)
	for i := uint32(0); i < nt; i++ {
		sb, err := readFrame(br)
		if err != nil {
			if err == io.EOF {
				return meta, nil, ErrTruncated
			}
			return meta, nil, err
		}
		dec, err := decodeSection(sb, ver)
		if err != nil {
			return meta, nil, err
		}
		tables = append(tables, dec)
	}
	return meta, tables, nil
}

// Save writes the snapshot of tbl visible at ts as a single-table stream,
// index definitions and absent row slots included.
func Save(w io.Writer, tbl *table.Table, ts storage.Timestamp) error {
	return WriteStream(w, Meta{TS: ts}, [][]byte{EncodeTable(tbl, ts)})
}

// Load restores a table saved by Save into mgr's database, publishing all
// rows atomically at a fresh commit timestamp and recreating the persisted
// secondary indexes.
func Load(r io.Reader, mgr *txn.Manager) (*table.Table, error) {
	_, tables, err := ReadStream(r)
	if err != nil {
		return nil, err
	}
	if len(tables) != 1 {
		return nil, fmt.Errorf("checkpoint: stream holds %d tables, want 1", len(tables))
	}
	var tbl *table.Table
	var loadErr error
	mgr.PublishAt(func(ts storage.Timestamp) {
		tbl, loadErr = tables[0].Build(ts)
	})
	if loadErr != nil {
		return nil, loadErr
	}
	return tbl, nil
}
