package db4ml

// This file is the durability facade: WithWAL arms a write-ahead log of
// uber-commit redo records (internal/wal), Checkpoint takes fuzzy
// incremental checkpoints (internal/checkpoint), and Open recovers state from the newest valid checkpoint plus the WAL tail before
// serving traffic.
//
// Durability ordering is publish-then-log: a commit becomes visible in
// memory first, its redo record is appended (and fsynced per the sync
// policy) second, and the caller is acknowledged only after the append. A
// crash between publish and append therefore loses only an unacknowledged
// commit — the committed-exactly-or-absent contract the crash trials of
// internal/check prove across every kill-point.
//
// Replay is idempotent: records apply in commit-timestamp order at their
// ORIGINAL timestamps (txn.Prepared.CommitAt), per-row installs are skipped
// when the chain head is already at or past the record's timestamp, loads
// carry their first row id and skip already-present rows, and table
// creations skip existing tables. Replaying the same tail twice yields
// bit-identical tables.
//
// A restart decodes the log once: wal.Open's scan decodes every record
// and recovery replays those (wal.Log.Recovered). Loaded rows and
// checkpoint rows are installed in bulk (table.Table.AppendOwned), and
// replayed commit versions come from one recovery-scoped
// storage.RecordArena.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"time"

	"db4ml/internal/chaos"
	"db4ml/internal/checkpoint"
	"db4ml/internal/introspect"
	"db4ml/internal/obs"
	"db4ml/internal/storage"
	"db4ml/internal/table"
	"db4ml/internal/trace"
	"db4ml/internal/txn"
	"db4ml/internal/wal"
)

type (
	// WALSyncPolicy selects when the WAL's group-commit batcher fsyncs; see
	// WALSyncAlways, WALSyncInterval, WALSyncNone.
	WALSyncPolicy = wal.SyncPolicy
	// CrashKiller arms exactly one simulated crash point; see WithCrashPoints
	// and NewCrashKiller. Test/experiment only, like FaultInjector.
	CrashKiller = chaos.Killer
	// CrashPoint identifies one simulated crash location on the durability
	// path.
	CrashPoint = chaos.CrashPoint
)

// WAL fsync policies (WithWALSync).
const (
	// WALSyncAlways fsyncs once per group-commit batch before acknowledging
	// it: every acknowledged commit is on disk.
	WALSyncAlways = wal.SyncAlways
	// WALSyncInterval acknowledges after the buffered write and fsyncs on a
	// 2 ms timer: a crash loses at most one interval of acknowledged commits.
	WALSyncInterval = wal.SyncInterval
	// WALSyncNone never fsyncs; the OS flushes on its own schedule.
	WALSyncNone = wal.SyncNone
)

// Simulated crash points (WithCrashPoints / NewCrashKiller).
const (
	CrashBeforePrepare       = chaos.CrashBeforePrepare
	CrashAfterPrepare        = chaos.CrashAfterPrepare
	CrashBetweenShardCommits = chaos.CrashBetweenShardCommits
	CrashAfterPublish        = chaos.CrashAfterPublish
	CrashMidWALAppend        = chaos.CrashMidWALAppend
	CrashAfterWALAppend      = chaos.CrashAfterWALAppend
	CrashMidCheckpoint       = chaos.CrashMidCheckpoint
)

// ErrCrashed reports a simulated crash: the database froze its WAL and the
// in-flight operation was never acknowledged. Recover by reopening the
// database over the same WithWAL directory.
var ErrCrashed = chaos.ErrCrashed

// NewCrashKiller arms one crash point for WithCrashPoints. The killer fires
// exactly once; after it fires the WAL is frozen and every subsequent
// durable operation fails with ErrCrashed, exactly as if the process died.
func NewCrashKiller(p CrashPoint) *CrashKiller { return chaos.NewKiller(p) }

// WithWAL enables durability: every table creation, bulk load, and
// uber-commit is logged to an append-only write-ahead log under dir, and
// Open recovers the database from the newest valid checkpoint in
// dir plus the WAL tail. Torn log tails (a crash mid-append) are truncated,
// not fatal.
func WithWAL(dir string) Option { return func(c *openConfig) { c.walDir = dir } }

// WithWALSync selects the WAL fsync policy (default WALSyncAlways).
func WithWALSync(p WALSyncPolicy) Option { return func(c *openConfig) { c.walPolicy = p } }

// WithCrashPoints arms a simulated crash at one durability kill-point; the
// crash surfaces as ErrCrashed and freezes the WAL. Test/experiment only —
// the crash trials of internal/check drive the kill-point matrix through it.
func WithCrashPoints(k *CrashKiller) Option { return func(c *openConfig) { c.crash = k } }

// durability is the durable-state machinery behind a DB: the open WAL, the
// crash killer, the checkpoint directory and section cache, and the
// observer/tracer the subsystem reports into.
type durability struct {
	log    *wal.Log
	dir    string
	crash  *chaos.Killer
	obs    *obs.Observer
	tracer *trace.Tracer

	// mu serializes checkpoints (the timer and manual Checkpoint calls);
	// cache maps table name -> section bytes keyed by the table's mutation
	// counter, so unchanged tables are not re-encoded or re-scanned.
	mu    sync.Mutex
	cache map[string]ckptSection
}

type ckptSection struct {
	muts  uint64
	bytes []byte
}

// killed fires the given crash point if armed: the WAL freezes (the process
// "died", so nothing later reaches disk) and the caller must fail its
// operation with ErrCrashed instead of acknowledging it. nil-safe.
func (d *durability) killed(p chaos.CrashPoint) bool {
	if d == nil || d.crash == nil || !d.crash.At(p) {
		return false
	}
	d.log.Freeze()
	return true
}

// killer is the armed crash killer the uber-commit's kill-points fire
// through (exec.UberSpec.Crash). nil-safe.
func (d *durability) killer() *chaos.Killer {
	if d == nil {
		return nil
	}
	return d.crash
}

// freeze halts the WAL after a kill-point fired outside it (the
// uber-commit's, inside exec.UberRun.Finish). nil-safe.
func (d *durability) freeze() {
	if d != nil {
		d.log.Freeze()
	}
}

// appendCreate logs one table creation. A nil d, like every append's, logs
// nothing: the database runs without WithWAL, or recovery is replaying.
func (d *durability) appendCreate(name string, cols []Column) error {
	if d == nil {
		return nil
	}
	return d.log.Append(&wal.Record{Kind: wal.KindCreateTable, Table: name, Cols: cols})
}

// appendLoad logs one bulk load published at ts, starting at firstRow. An
// empty load logs nothing.
func (d *durability) appendLoad(name string, ts Timestamp, firstRow int, rows []Payload) error {
	if d == nil || len(rows) == 0 {
		return nil
	}
	return d.log.Append(&wal.Record{
		Kind: wal.KindLoad, TS: ts, Table: name,
		FirstRow: uint64(firstRow), Rows: rows,
	})
}

// appendCommit logs one uber-commit published at ts: for every distinct
// table the run attached, the full-row after-image of every row whose
// current version begins exactly at ts. Tables and rows untouched by the
// commit contribute nothing. A commit that published no rows logs nothing.
// The traceID (0 if untraced) correlates the in-memory WAL batch span
// with the uber-transaction that produced the commit.
func (d *durability) appendCommit(ts Timestamp, tables []*table.Table, traceID uint64) error {
	if d == nil {
		return nil
	}
	rec := &wal.Record{Kind: wal.KindCommit, TS: ts, Trace: traceID}
	for _, tbl := range tables {
		tu := wal.TableUpdate{Table: tbl.Name()}
		n := tbl.NumRows()
		for row := 0; row < n; row++ {
			chain := tbl.Chain(RowID(row))
			if chain == nil {
				continue
			}
			r := chain.VisibleAt(ts)
			if r == nil || r.Begin() != ts {
				continue
			}
			tu.Rows = append(tu.Rows, wal.RowUpdate{Row: uint64(row), Payload: r.Payload})
		}
		if len(tu.Rows) > 0 {
			rec.Tables = append(rec.Tables, tu)
		}
	}
	if len(rec.Tables) == 0 {
		return nil
	}
	return d.log.Append(rec)
}

// distinctTables resolves a run's attachments to their unique tables.
func distinctTables(attach []Attachment) []*table.Table {
	var out []*table.Table
	for _, a := range attach {
		if a.Table != nil && !slices.Contains(out, a.Table) {
			out = append(out, a.Table)
		}
	}
	return out
}

// recoverKernel rebuilds db from the newest valid checkpoint in oc.walDir
// plus the WAL tail, and returns the armed durability state: the
// checkpoint's tables are recreated with their rows published at its
// timestamp and their absent slots tombstoned, the WAL is opened
// (truncating any torn tail), the records its scan decoded that the
// checkpoint does not cover are replayed, and every stable watermark moves
// to the newest replayed timestamp. Durability is armed only after replay,
// so replay never re-logs what it applies. agg, when non-nil, receives the
// WAL and recovery telemetry; tracer receives the replay spans. Runs before
// db serves anything. Tables are the ones CreateTable hands out: on a
// cluster a table is addressed by its global view, whose version chains
// are the owning shards' chains.
func recoverKernel(db *DB, oc openConfig, agg *introspect.Aggregator, tracer *trace.Tracer) (_ *durability, err error) {
	var ckpt checkpoint.Meta
	loaded, err := checkpoint.LatestValid(oc.walDir)
	if err != nil {
		return nil, err
	}
	if loaded != nil {
		ckpt = loaded.Meta
		for _, dec := range loaded.Tables {
			st, err := db.createTable(dec.Name, dec.Cols, nil)
			if err != nil {
				return nil, err
			}
			if slots := dec.Slots(); len(slots) > 0 {
				if err := st.LoadAt(db.cluster, ckpt.TS, slots); err != nil {
					return nil, err
				}
			}
			if err := dec.CreateIndexes(st.View()); err != nil {
				return nil, err
			}
		}
	}

	d := &durability{
		dir:    oc.walDir,
		crash:  oc.crash,
		tracer: tracer,
		cache:  make(map[string]ckptSection),
	}
	if agg != nil {
		d.obs = obs.New()
		agg.Attach(d.obs)
	}
	d.log, err = wal.Open(wal.Options{
		Dir:      oc.walDir,
		Policy:   oc.walPolicy,
		Observer: d.obs,
		Tracer:   tracer,
		Killer:   oc.crash,
	})
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			_ = d.log.Close()
		}
	}()

	// Replayed commit versions come from one arena that lives as long as
	// this recovery: its chunks outlive it only through the versions they
	// hold.
	var arena storage.RecordArena
	maxTS := ckpt.TS
	replayed := 0
	for _, rec := range replayOrder(d.log.Recovered(), ckpt.LSN, ckpt.TS) {
		replayAt := tracer.Now()
		applied, err := replay(db, rec, &arena)
		if err != nil {
			return nil, err
		}
		if !applied {
			continue
		}
		maxTS = max(maxTS, rec.TS)
		replayed++
		tracer.Span(0, trace.KindReplay, 0, int64(rec.LSN), replayAt, tracer.Now()-replayAt)
	}
	for _, m := range db.managers() {
		m.RestoreStable(maxTS)
	}
	if d.obs != nil && replayed > 0 {
		d.obs.Add(0, obs.RecoveryReplays, uint64(replayed))
	}
	return d, nil
}

// replayOrder selects and orders the records recovery applies: records
// covered by the checkpoint (LSN below the checkpoint's, or committed at or
// before the checkpoint timestamp — the fuzzy-overlap window) are dropped,
// and the survivors sort by commit timestamp (ties by LSN). Timestamp order
// — not LSN order — is the apply order because concurrent commits append
// out of timestamp order, and CommitAt requires a monotone stable watermark.
// Table creations (timestamp 0) sort first, before anything touches them.
func replayOrder(recs []*wal.Record, ckptLSN uint64, ckptTS Timestamp) []*wal.Record {
	out := make([]*wal.Record, 0, len(recs))
	for _, r := range recs {
		if r.LSN < ckptLSN {
			continue
		}
		if r.Kind != wal.KindCreateTable && r.TS <= ckptTS {
			continue
		}
		out = append(out, r)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].TS != out[j].TS {
			return out[i].TS < out[j].TS
		}
		return out[i].LSN < out[j].LSN
	})
	return out
}

// replay applies one WAL record to db at its original timestamp and reports
// whether it applied anything. Every kind is idempotent: creations skip
// existing tables and loads skip the rows already present — both then
// report false, so recovery neither counts nor spans them — and commits
// skip rows already at or past the record. A load that starts past the
// table's end (an unacknowledged concurrent load was lost in the crash)
// tombstones the gap, so its rows land at their logged ids. Commit
// versions come from arena.
func replay(db *DB, rec *wal.Record, arena *storage.RecordArena) (bool, error) {
	switch rec.Kind {
	case wal.KindCreateTable:
		if db.Table(rec.Table) != nil {
			return false, nil
		}
		_, err := db.createTable(rec.Table, rec.Cols, nil)
		return true, err
	case wal.KindLoad:
		st := db.ShardedTable(rec.Table)
		if st == nil {
			return false, fmt.Errorf("load record for unknown table %q", rec.Table)
		}
		rows := rec.Rows
		switch have := uint64(st.NumRows()); {
		case have > rec.FirstRow:
			rows = rows[min(have-rec.FirstRow, uint64(len(rows))):]
		case have < rec.FirstRow && len(rows) > 0:
			gap := rec.FirstRow - have
			rows = append(make([]Payload, gap, gap+uint64(len(rows))), rows...)
		}
		if len(rows) == 0 {
			return false, nil
		}
		return true, st.LoadAt(db.cluster, rec.TS, rows)
	case wal.KindCommit:
		// One publish at the record's timestamp on every kernel; installing
		// through a view on kernel 0 covers them all, because a view's
		// chains are the owning kernels' chains.
		_ = db.cluster.PublishAllAt(rec.TS, func(s int, ts Timestamp) error {
			if s > 0 {
				return nil
			}
			for _, tu := range rec.Tables {
				if tbl := db.Table(tu.Table); tbl != nil {
					installReplay(tbl, tu, ts, arena)
				}
			}
			return nil
		})
	}
	return true, nil
}

// installReplay applies one commit record's after-images onto a table's
// chains at ts, skipping rows whose head version is already at or past ts —
// the per-row idempotence guard that makes double replay a no-op. The
// versions take the record's payloads and come from arena.
func installReplay(tbl *table.Table, tu wal.TableUpdate, ts Timestamp, arena *storage.RecordArena) {
	slots := tbl.Slots()
	installed := false
	for _, ru := range tu.Rows {
		if ru.Row >= uint64(len(slots)) {
			continue
		}
		chain := slots[ru.Row]
		head := chain.Head()
		if head != nil && head.Begin() >= ts {
			continue
		}
		chain.Install(head, arena.New(ts, ru.Payload))
		installed = true
	}
	if installed {
		tbl.NoteMutation()
	}
}

// checkpoint takes one fuzzy checkpoint of db: it rolls the WAL, pins one
// consistent cut (txn.Cut), writes every table's snapshot at the cut to a new durable
// checkpoint file, and truncates the WAL below the roll point. Workers never
// stall — commits wait out only the cut itself — and a table whose mutation
// counter has not moved since the previous checkpoint reuses its encoded
// section without a re-scan.
func (d *durability) checkpoint(db *DB) error {
	if d == nil {
		return fmt.Errorf("db4ml: checkpointing requires WithWAL")
	}
	d.mu.Lock()
	defer d.mu.Unlock()

	// Roll first, then capture the boundary LSN, then pin: every record
	// below the boundary was appended — and therefore published — before
	// the pin, so the pinned snapshot covers it and truncation is safe.
	if err := d.log.Roll(); err != nil {
		return err
	}
	meta := checkpoint.Meta{LSN: d.log.NextLSN()}
	mgrs := db.managers()
	pinStart := time.Now()
	meta.TS = txn.Cut(mgrs)
	pause := time.Since(pinStart)
	defer func() {
		for _, m := range mgrs {
			m.UnpinSnapshot(meta.TS)
		}
	}()

	ckptStart := time.Now()
	ckptAt := d.tracer.Now()
	tables := db.tableSet()
	sort.Slice(tables, func(i, j int) bool { return tables[i].Name() < tables[j].Name() })
	sections := make([][]byte, len(tables))
	var reused uint64
	for i, tbl := range tables {
		secAt := d.tracer.Now()
		// Counter read after the pin: if it matches the cached value, no
		// publish happened since that section was encoded, so the snapshot
		// at this later pinned timestamp is bit-identical.
		muts := tbl.Mutations()
		var spanArg int64 // 1 = cached section reused
		if c, ok := d.cache[tbl.Name()]; ok && c.muts == muts {
			sections[i], spanArg = c.bytes, 1
			reused++
		} else {
			sections[i] = checkpoint.EncodeTable(tbl.View(), meta.TS)
			d.cache[tbl.Name()] = ckptSection{muts: muts, bytes: sections[i]}
		}
		d.tracer.Span(0, trace.KindCkptSection, 0, spanArg, secAt, d.tracer.Now()-secAt)
	}
	seq, err := checkpoint.NextSeq(d.dir)
	if err != nil {
		return err
	}
	if d.killed(chaos.CrashMidCheckpoint) {
		// A real crash mid-write can only leave a torn file under the FINAL
		// name if rename-into-place is interrupted by power loss after a
		// partial journal flush; simulate the worst case directly so
		// recovery's LatestValid torn-file fallback is actually exercised.
		var buf bytes.Buffer
		_ = checkpoint.WriteStream(&buf, meta, sections)
		torn := buf.Bytes()[:buf.Len()/2]
		_ = os.WriteFile(filepath.Join(d.dir, checkpoint.FileName(seq)), torn, 0o644)
		return chaos.ErrCrashed
	}
	if _, err := checkpoint.WriteFile(d.dir, seq, meta, sections); err != nil {
		return err
	}
	if _, err := d.log.TruncateBelow(meta.LSN); err != nil {
		return err
	}
	if d.obs != nil {
		d.obs.Add(0, obs.Checkpoints, 1)
		d.obs.Add(0, obs.CkptSectionsWritten, uint64(len(sections))-reused)
		d.obs.Add(0, obs.CkptSectionsReused, reused)
		d.obs.RecordLatency(0, obs.CheckpointPauseLatency, int64(pause))
		d.obs.RecordLatency(0, obs.CheckpointDuration, time.Since(ckptStart).Nanoseconds())
	}
	d.tracer.Span(0, trace.KindCheckpoint, 0, int64(len(sections)), ckptAt, d.tracer.Now()-ckptAt)
	return nil
}

// Checkpoint takes one fuzzy checkpoint now at one cut of every kernel:
// no worker stalls, and the WAL is truncated below it. Requires WithWAL.
func (db *DB) Checkpoint() error { return db.dur.checkpoint(db) }
