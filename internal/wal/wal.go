// Package wal is the kernel's write-ahead log: an append-only, CRC32C-framed,
// length-prefixed log of logical redo records — table creations, bulk loads,
// and uber-commits (table, row, column versions, commit timestamp) — written
// behind a group-commit batcher with a configurable fsync policy.
//
// Durability ordering: the facade publishes a commit in memory first, then
// appends its WAL record, and acknowledges the caller only after the append
// is acknowledged under the configured policy. A crash between publish and
// append therefore loses an *unacknowledged* commit — exactly the
// "committed-exactly-or-absent" contract the recovery harness
// (check.Run's crash trials) verifies.
//
// On-disk layout: numbered segment files ("wal-%016x.seg"), each a fixed
// header (magic, version, first LSN) followed by frames of
//
//	[payload length u32][crc32c(payload) u32][payload]
//
// all little-endian. Replay reads segments in LSN order and stops at the
// first torn or corrupt frame; Open physically truncates that tail so the
// log is append-clean again. Log sequence numbers are assigned densely by
// the appender, so a gap or regression is itself corruption.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"time"

	"db4ml/internal/storage"
	"db4ml/internal/table"
)

// SyncPolicy controls when the group-commit batcher calls fsync.
type SyncPolicy uint8

const (
	// SyncAlways fsyncs once per group-commit batch before acknowledging the
	// batch's appends — every acknowledged commit is on disk. This is still
	// group commit: all appends queued while the previous fsync ran share
	// the next one.
	SyncAlways SyncPolicy = iota
	// SyncInterval acknowledges after the buffered write and fsyncs at most
	// once per interval — a crash can lose up to one interval of
	// acknowledged commits.
	SyncInterval
	// SyncNone never fsyncs; the OS flushes on its own schedule.
	SyncNone
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNone:
		return "none"
	default:
		return "policy(?)"
	}
}

// Kind identifies a redo record's type.
type Kind uint8

const (
	// KindCreateTable records a table creation (name + schema).
	KindCreateTable Kind = 1
	// KindLoad records a bulk load: rows appended starting at FirstRow,
	// published at TS.
	KindLoad Kind = 2
	// KindCommit records an uber-commit: the rows each attached table
	// published at TS, as full-row after-images.
	KindCommit Kind = 3
)

// RowUpdate is one row's after-image within a commit record.
type RowUpdate struct {
	Row     uint64
	Payload storage.Payload
}

// TableUpdate is one table's share of a commit record.
type TableUpdate struct {
	Table string
	Rows  []RowUpdate
}

// Record is one logical redo record. Exactly the fields for its Kind are
// meaningful: Table+Cols for KindCreateTable, Table+FirstRow+Rows for
// KindLoad, Tables for KindCommit. LSN is assigned by the appender.
type Record struct {
	Kind Kind
	LSN  uint64
	TS   storage.Timestamp

	// Trace is the appending transaction's correlation id, stamped on the
	// group-commit batch's trace span. In-memory only — never serialized,
	// zero after replay.
	Trace uint64

	Table    string
	Cols     []table.Column
	FirstRow uint64
	Rows     []storage.Payload
	Tables   []TableUpdate
}

var (
	// ErrClosed is returned by Append on a closed log.
	ErrClosed = errors.New("wal: log closed")
	// ErrCorrupt marks a frame or record that fails its CRC, length sanity,
	// or structural decode — replay stops at (and Open truncates) the first
	// such frame.
	ErrCorrupt = errors.New("wal: corrupt record")
)

// castagnoli is the CRC32C polynomial table (the iSCSI/ext4 checksum).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Segment header: magic, format version, first LSN of the segment.
var segMagic = [4]byte{'D', '4', 'W', 'L'}

const (
	segVersion    = 1
	segHeaderLen  = 4 + 1 + 8
	frameHeadLen  = 8
	maxPayloadLen = 1 << 28 // 256 MiB: no sane record is bigger
	// maxCount caps every decoded element count before allocation, so a
	// corrupt or fuzzed length prefix cannot demand gigabytes.
	maxCount = 1 << 24
)

// defaultSegmentBytes is the roll threshold for segment files.
const defaultSegmentBytes = 8 << 20

// --- record payload codec ---

type encBuf struct{ b []byte }

func (e *encBuf) u8(v uint8)   { e.b = append(e.b, v) }
func (e *encBuf) u32(v uint32) { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *encBuf) u64(v uint64) { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *encBuf) str(s string) {
	e.u32(uint32(len(s)))
	e.b = append(e.b, s...)
}
func (e *encBuf) payload(p storage.Payload) {
	for _, w := range p {
		e.u64(w)
	}
}

// encodePayload renders the record body (everything the frame CRC covers).
func encodePayload(r *Record) ([]byte, error) {
	var e encBuf
	e.u8(uint8(r.Kind))
	e.u64(r.LSN)
	e.u64(uint64(r.TS))
	switch r.Kind {
	case KindCreateTable:
		e.str(r.Table)
		e.u32(uint32(len(r.Cols)))
		for _, c := range r.Cols {
			e.str(c.Name)
			e.u8(uint8(c.Type))
		}
	case KindLoad:
		e.str(r.Table)
		e.u64(r.FirstRow)
		width := 0
		if len(r.Rows) > 0 {
			width = len(r.Rows[0])
		}
		e.u32(uint32(width))
		e.u64(uint64(len(r.Rows)))
		for _, row := range r.Rows {
			if len(row) != width {
				return nil, fmt.Errorf("wal: ragged load row (width %d, want %d)", len(row), width)
			}
			e.payload(row)
		}
	case KindCommit:
		e.u32(uint32(len(r.Tables)))
		for _, tu := range r.Tables {
			e.str(tu.Table)
			width := 0
			if len(tu.Rows) > 0 {
				width = len(tu.Rows[0].Payload)
			}
			e.u32(uint32(width))
			e.u64(uint64(len(tu.Rows)))
			for _, ru := range tu.Rows {
				if len(ru.Payload) != width {
					return nil, fmt.Errorf("wal: ragged commit row (width %d, want %d)", len(ru.Payload), width)
				}
				e.u64(ru.Row)
				e.payload(ru.Payload)
			}
		}
	default:
		return nil, fmt.Errorf("wal: unknown record kind %d", r.Kind)
	}
	return e.b, nil
}

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

// words fills p from the next len(p) little-endian words.
func (d *decBuf) words(p storage.Payload) error {
	if d.remaining() < len(p)*8 {
		return ErrCorrupt
	}
	for i := range p {
		p[i] = binary.LittleEndian.Uint64(d.b[d.off:])
		d.off += 8
	}
	return nil
}

// count validates an element count against both the hard cap and the bytes
// actually present (each element needs at least minBytes).
func (d *decBuf) count(n uint64, minBytes int) (int, error) {
	if n > maxCount || (minBytes > 0 && n > uint64(d.remaining()/minBytes)) {
		return 0, ErrCorrupt
	}
	return int(n), nil
}

// decodePayload parses one record body. It never panics on hostile input:
// every length is validated against the remaining bytes before allocation.
// The rows of a load, and of each table of a commit, are carved from one
// storage.Slab, so a record costs a handful of allocations whatever its
// row count.
func decodePayload(b []byte) (*Record, error) {
	d := decBuf{b: b}
	kind, err := d.u8()
	if err != nil {
		return nil, err
	}
	r := &Record{Kind: Kind(kind)}
	if r.LSN, err = d.u64(); err != nil {
		return nil, err
	}
	ts, err := d.u64()
	if err != nil {
		return nil, err
	}
	r.TS = storage.Timestamp(ts)
	switch r.Kind {
	case KindCreateTable:
		if r.Table, err = d.str(); err != nil {
			return nil, err
		}
		nc, err := d.u32()
		if err != nil {
			return nil, err
		}
		n, err := d.count(uint64(nc), 5)
		if err != nil {
			return nil, err
		}
		r.Cols = make([]table.Column, n)
		for i := range r.Cols {
			if r.Cols[i].Name, err = d.str(); err != nil {
				return nil, err
			}
			ct, err := d.u8()
			if err != nil {
				return nil, err
			}
			r.Cols[i].Type = table.ColType(ct)
		}
	case KindLoad:
		if r.Table, err = d.str(); err != nil {
			return nil, err
		}
		if r.FirstRow, err = d.u64(); err != nil {
			return nil, err
		}
		w32, err := d.u32()
		if err != nil {
			return nil, err
		}
		width, err := d.count(uint64(w32), 8)
		if err != nil {
			return nil, err
		}
		nr, err := d.u64()
		if err != nil {
			return nil, err
		}
		// max(1,·): zero-width rows occupy no bytes, so without the floor a
		// hostile count could demand an arbitrary allocation.
		n, err := d.count(nr, max(1, width*8))
		if err != nil {
			return nil, err
		}
		r.Rows = make([]storage.Payload, n)
		slab := storage.NewSlab(n, width)
		for i := range r.Rows {
			r.Rows[i] = slab.Row(i)
			if err := d.words(r.Rows[i]); err != nil {
				return nil, err
			}
		}
	case KindCommit:
		nt, err := d.u32()
		if err != nil {
			return nil, err
		}
		n, err := d.count(uint64(nt), 16)
		if err != nil {
			return nil, err
		}
		r.Tables = make([]TableUpdate, n)
		for i := range r.Tables {
			tu := &r.Tables[i]
			if tu.Table, err = d.str(); err != nil {
				return nil, err
			}
			w32, err := d.u32()
			if err != nil {
				return nil, err
			}
			width, err := d.count(uint64(w32), 8)
			if err != nil {
				return nil, err
			}
			nr, err := d.u64()
			if err != nil {
				return nil, err
			}
			rows, err := d.count(nr, 8+width*8)
			if err != nil {
				return nil, err
			}
			tu.Rows = make([]RowUpdate, rows)
			slab := storage.NewSlab(rows, width)
			for j := range tu.Rows {
				if tu.Rows[j].Row, err = d.u64(); err != nil {
					return nil, err
				}
				tu.Rows[j].Payload = slab.Row(j)
				if err := d.words(tu.Rows[j].Payload); err != nil {
					return nil, err
				}
			}
		}
	default:
		return nil, fmt.Errorf("%w: kind %d", ErrCorrupt, kind)
	}
	if d.remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, d.remaining())
	}
	return r, nil
}

// encodeFrame wraps a record payload in the [len][crc][payload] frame.
func encodeFrame(payload []byte) []byte {
	out := make([]byte, frameHeadLen+len(payload))
	binary.LittleEndian.PutUint32(out[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(out[4:], crc32.Checksum(payload, castagnoli))
	copy(out[frameHeadLen:], payload)
	return out
}

func segName(firstLSN uint64) string { return fmt.Sprintf("wal-%016x.seg", firstLSN) }

func segHeader(firstLSN uint64) []byte {
	h := make([]byte, segHeaderLen)
	copy(h, segMagic[:])
	h[4] = segVersion
	binary.LittleEndian.PutUint64(h[5:], firstLSN)
	return h
}

// parseSegHeader validates a segment header and returns its first LSN.
func parseSegHeader(b []byte) (uint64, error) {
	if len(b) < segHeaderLen || [4]byte(b[:4]) != segMagic {
		return 0, fmt.Errorf("%w: bad segment magic", ErrCorrupt)
	}
	if b[4] != segVersion {
		return 0, fmt.Errorf("%w: segment version %d (want %d)", ErrCorrupt, b[4], segVersion)
	}
	return binary.LittleEndian.Uint64(b[5:]), nil
}

// syncDir fsyncs a directory so a just-created or just-removed file's
// directory entry is durable. Best-effort: some filesystems refuse directory
// fsync, which is not worth failing a commit over.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
}

// Interval defaults for the SyncInterval policy.
const defaultSyncInterval = 2 * time.Millisecond
