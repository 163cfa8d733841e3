package main

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"db4ml"
	"db4ml/internal/obs"
	"db4ml/internal/storage"
	"db4ml/internal/wal"
)

const incIters = 4 // increments per row per uber-transaction

// incSub bumps one counter row once per iteration — the smallest possible
// sub-transaction, so an increment job is all facade and log.
type incSub struct {
	tbl *db4ml.Table
	row db4ml.RowID
	rec *storage.IterativeRecord
	buf db4ml.Payload
}

func (s *incSub) Begin(*db4ml.Ctx) {
	s.rec = s.tbl.IterRecord(s.row)
	s.buf = make(db4ml.Payload, 2)
}

func (s *incSub) Execute(ctx *db4ml.Ctx) {
	ctx.Read(s.rec, s.buf)
	s.buf.SetFloat64(1, s.buf.Float64(1)+1)
	ctx.Write(s.rec, s.buf)
}

func (s *incSub) Validate(ctx *db4ml.Ctx) db4ml.Action {
	if ctx.Iteration()+1 >= incIters {
		return db4ml.Done
	}
	return db4ml.Commit
}

// incJob is the increment job over the first `rows` rows of a
// `total`-row Counter table, as an mlSpec (so it climbs the shared ladder).
type incJob struct {
	mlSpec
	rows, total int
	vals        []float64 // last read-back of the job's rows
}

func newIncJob(rows, total int) *incJob {
	j := &incJob{rows: rows, total: total, vals: make([]float64, rows)}
	j.iso = db4ml.MLOptions{Level: db4ml.Asynchronous}
	j.units = float64(rows) * incIters
	j.load = func(k kernel) (*mlTarget, error) {
		tbl, err := k.CreateTable("Counter",
			db4ml.Column{Name: "ID", Type: db4ml.Int64}, db4ml.Column{Name: "Value", Type: db4ml.Float64})
		if err != nil {
			return nil, err
		}
		load := make([]db4ml.Payload, total)
		for i := range load {
			load[i] = db4ml.Payload{uint64(i), 0}
		}
		if err := k.BulkLoad(tbl, load); err != nil {
			return nil, err
		}
		return j.target(k, tbl), nil
	}
	return j
}

// target wraps an already loaded (or recovered) Counter table.
func (j *incJob) target(k kernel, tbl *db4ml.Table) *mlTarget {
	var rows []db4ml.RowID
	if j.rows < j.total {
		rows = make([]db4ml.RowID, j.rows)
		for i := range rows {
			rows[i] = db4ml.RowID(i)
		}
	}
	return &mlTarget{
		k: k, attach: tbl, rows: rows,
		build: func(db4ml.Timestamp) ([]db4ml.IterativeTransaction, func(int) int, error) {
			subs := make([]db4ml.IterativeTransaction, j.rows)
			for i := range subs {
				subs[i] = &incSub{tbl: tbl, row: db4ml.RowID(i)}
			}
			return subs, nil, nil
		},
		read: func(ts db4ml.Timestamp) error {
			for i := range j.vals {
				r, ok := tbl.Read(db4ml.RowID(i), ts)
				if !ok {
					return fmt.Errorf("counter %d unreadable at timestamp %d", i, ts)
				}
				j.vals[i] = r.Float64(1)
			}
			return nil
		},
	}
}

// reopen recovers the database logged under dir and wraps its Counter
// table. The target is returned even on error, so the caller can close it.
func (j *incJob) reopen(dir string) (*mlTarget, error) {
	k := openWAL(dir)
	tbl := k.db.Table("Counter")
	t := j.target(k, tbl)
	if tbl == nil {
		return t, fmt.Errorf("Counter table missing after recovery")
	}
	return t, nil
}

// expect checks that every counter of the job reads want.
func (j *incJob) expect(want float64) error {
	for i, v := range j.vals {
		if v != want {
			return fmt.Errorf("counter %d reads %g, want %g", i, v, want)
		}
	}
	return nil
}

// rawLoop is the raw rung: the increments on a plain slice.
func (j *incJob) rawLoop() error {
	v := make([]float64, j.rows)
	for it := 0; it < incIters; it++ {
		for i := range v {
			v[i]++
		}
	}
	sink += uint64(v[0])
	return nil
}

// storageLoop is the storage rung: the increments on bare iterative
// records, read and installed the way the sub-transaction's Ctx would.
func (j *incJob) storageLoop() error {
	recs := storage.NewIterativeRecordBatch(j.rows, 2, 1, func(i int) storage.Payload {
		return storage.Payload{uint64(i), 0}
	})
	buf := make(storage.Payload, 2)
	for it := 0; it < incIters; it++ {
		for _, r := range recs {
			r.ReadRelaxed(buf)
			buf.SetFloat64(1, buf.Float64(1)+1)
			r.InstallRelaxed(buf)
		}
	}
	return nil
}

// openWAL opens a single kernel logging to dir at the default
// WALSyncAlways policy — the policy both sides of any comparison run at.
func openWAL(dir string) kernel {
	return openKernel(0, db4ml.WithWorkers(2), db4ml.WithWAL(dir))
}

// walInst is wal_commit_restart: one durable increment uber-transaction
// per op, then a restart that must find every acknowledged commit.
type walInst struct {
	*incJob
	dir, tmp string
	t        *mlTarget
	side     *os.File // the baseline's append-only file, same filesystem as the log
	sideBuf  []byte
	acked    int
}

func walWorkload(name string) workload {
	return workload{name: name, unit: "sub-transaction", setup: func(seed int64, sz sizes, tmp string) (instance, error) {
		w := &walInst{incJob: newIncJob(sz.walRows, sz.walRows), dir: filepath.Join(tmp, "wal"), tmp: tmp}
		var err error
		if w.side, err = os.Create(filepath.Join(tmp, "baseline.log")); err != nil {
			return nil, err
		}
		w.sideBuf = make([]byte, 16*sz.walRows)
		if w.t, err = w.load(openWAL(w.dir)); err != nil {
			return nil, err
		}
		if err := w.op(); err != nil {
			w.close()
			return nil, err
		}
		return w, nil
	}}
}

func (w *walInst) unitsPerOp() float64 { return w.units }
func (w *walInst) burst() int          { return 1 }
func (w *walInst) baselineReps() int   { return 1 }
func (w *walInst) native() string      { return "wal" }

func (w *walInst) op() error {
	if err := w.run(w.t); err != nil {
		return err
	}
	w.acked++
	return nil
}

func (w *walInst) baseline() (time.Duration, error) { return timeOf(w.durableRaw) }

// durableRaw is the specialised durable engine: do the increments on a
// plain slice, append the rows' after-images to a file, fsync — the same
// user bytes made durable at the same policy on the same filesystem.
func (w *walInst) durableRaw() error {
	if err := w.rawLoop(); err != nil {
		return err
	}
	for i := 0; i < w.rows; i++ {
		binary.LittleEndian.PutUint64(w.sideBuf[16*i:], uint64(i))
		binary.LittleEndian.PutUint64(w.sideBuf[16*i+8:], uint64(w.acked))
	}
	if _, err := w.side.Write(w.sideBuf); err != nil {
		return err
	}
	return w.side.Sync()
}

func (w *walInst) verify() error {
	defer w.t.k.PruneNow()
	return w.expect(float64(incIters * w.acked))
}

// finish restarts the database from its log and checks that every
// acknowledged uber-commit is readable.
func (w *walInst) finish() error {
	if err := w.t.k.db.Close(); err != nil {
		return err
	}
	t0 := time.Now()
	var err error
	if w.t, err = w.reopen(w.dir); err != nil {
		return err
	}
	if err := w.t.read(w.t.k.Stable()); err != nil {
		return err
	}
	if err := w.expect(float64(incIters * w.acked)); err != nil {
		return fmt.Errorf("after restart (%d acknowledged commits, %s): %w", w.acked, time.Since(t0).Round(time.Microsecond), err)
	}
	return nil
}

func (w *walInst) close() {
	w.side.Close()
	w.t.k.Close()
}

func (w *walInst) traced(tr *tracer) error {
	if err := w.runFacadeTraced(w.t, tr); err != nil {
		return err
	}
	w.acked++
	return nil
}

func (w *walInst) rungs() []rung { return w.mlSpec.rungs(w.rawLoop, w.storageLoop, w.tmp) }

// dirBytes sums the sizes of the regular files directly under dir.
func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range entries {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
	}
	return total, nil
}

// detail prices the wal layer by itself: the commit records this instance
// logged are replayed through a bench-owned wal.Log at each fsync policy,
// with the log's own counters giving exact records, bytes and fsyncs.
func (w *walInst) detail(out io.Writer) error {
	recs, err := wal.Records(w.dir)
	if err != nil {
		return err
	}
	var commits []*wal.Record
	for _, r := range recs {
		if r.Kind == wal.KindCommit {
			commits = append(commits, r)
		}
	}
	if len(commits) == 0 {
		return fmt.Errorf("no commit record in %s", w.dir)
	}
	userBytes := float64(len(commits) * w.rows * 2 * 8)
	fmt.Fprintf(out, "  wal layer alone: %d commit records of %d rows replayed through wal.Log.Append (latency is this sandbox's disk, not a device's)\n", len(commits), w.rows)
	for _, policy := range []wal.SyncPolicy{wal.SyncAlways, wal.SyncInterval, wal.SyncNone} {
		dir, err := os.MkdirTemp(w.tmp, "wal-layer-")
		if err != nil {
			return err
		}
		o := obs.New()
		log, err := wal.Open(wal.Options{Dir: dir, Policy: policy, Observer: o})
		if err != nil {
			return err
		}
		t0 := time.Now()
		for _, r := range commits {
			if err := log.Append(&wal.Record{Kind: r.Kind, TS: r.TS, Tables: r.Tables}); err != nil {
				return err
			}
		}
		d := time.Since(t0)
		if err := log.Close(); err != nil {
			return err
		}
		c := o.Snapshot().Counters
		fmt.Fprintf(out, "  wal sync=%-8s %9.1f us/append  records %d  bytes %d  fsyncs %d  wal_bytes_per_user_byte %.3f\n",
			policy, float64(d.Microseconds())/float64(len(commits)), c.WALAppendCount, c.WALBytes, c.WALFsyncs, float64(c.WALBytes)/userBytes)
		os.RemoveAll(dir)
	}
	return nil
}

// recInst is wal_recovery: every op closes the database and reopens it from
// a fixed log, timed until the first read is answered.
type recInst struct {
	*incJob
	dir, tmp string
	t        *mlTarget
	commits  int
	records  int    // log records a restart replays
	buf      []byte // the baseline's read buffer
}

func recoveryWorkload(name string) workload {
	return workload{name: name, unit: "log record", setup: func(seed int64, sz sizes, tmp string) (instance, error) {
		r := &recInst{incJob: newIncJob(sz.walRows, sz.recRows), dir: filepath.Join(tmp, "wal"), tmp: tmp, commits: sz.recCommits}
		var err error
		if r.t, err = r.load(openWAL(r.dir)); err != nil {
			return nil, err
		}
		for i := 0; i < r.commits; i++ {
			if err := r.run(r.t); err != nil {
				r.close()
				return nil, err
			}
		}
		if err := r.op(); err != nil { // warm-up restart
			r.close()
			return nil, err
		}
		recs, err := wal.Records(r.dir)
		if err != nil {
			r.close()
			return nil, err
		}
		r.records = len(recs)
		return r, nil
	}}
}

func (r *recInst) unitsPerOp() float64 { return float64(r.records) }
func (r *recInst) burst() int          { return 1 }
func (r *recInst) baselineReps() int   { return 8 }
func (r *recInst) native() string      { return "db4ml" }

// op is one restart: Close, Open(WithWAL(dir)) — checkpoint-less recovery
// replaying the whole log — and the first read.
func (r *recInst) op() error {
	if err := r.t.k.db.Close(); err != nil {
		return err
	}
	return r.reopen(nil)
}

func (r *recInst) reopen(tr *tracer) error {
	sp := tr.begin("Open(WithWAL): recover")
	var err error
	r.t, err = r.incJob.reopen(r.dir)
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.begin("first read")
	defer tr.end(sp)
	if _, ok := r.t.attach.Read(0, r.t.k.Stable()); !ok {
		return fmt.Errorf("counter 0 unreadable after recovery")
	}
	return nil
}

func (r *recInst) baseline() (time.Duration, error) { return timeOf(r.readLog) }

// readLog reads the log's bytes back from the filesystem — what a restart
// costs with no decoding, no replay and no index rebuild. It reads into one
// reused buffer: a fresh one per call would time the kernel zeroing pages.
func (r *recInst) readLog() error {
	entries, err := os.ReadDir(r.dir)
	if err != nil {
		return err
	}
	if r.buf == nil {
		r.buf = make([]byte, 1<<20)
	}
	for _, e := range entries {
		f, err := os.Open(filepath.Join(r.dir, e.Name()))
		if err != nil {
			return err
		}
		for {
			n, err := f.Read(r.buf)
			sink += uint64(n)
			if err == io.EOF {
				break
			}
			if err != nil {
				f.Close()
				return err
			}
		}
		f.Close()
	}
	return nil
}

// verify: the recovered table holds exactly the logged commits.
func (r *recInst) verify() error {
	if err := r.t.read(r.t.k.Stable()); err != nil {
		return err
	}
	if err := r.expect(float64(incIters * r.commits)); err != nil {
		return err
	}
	if n := r.t.attach.NumRows(); n != r.total {
		return fmt.Errorf("recovered %d rows, want %d", n, r.total)
	}
	return nil
}

func (r *recInst) finish() error { return nil }
func (r *recInst) close()        { r.t.k.Close() }

func (r *recInst) traced(tr *tracer) error {
	root := tr.begin("op")
	defer tr.end(root)
	sp := tr.begin("DB.Close")
	err := r.t.k.db.Close()
	tr.end(sp)
	if err != nil {
		return err
	}
	return r.reopen(tr)
}

// rungs: raw reads the bytes, kernel decodes them (wal.Records, the layer
// that does the work here), db4ml is the full restart. Storage, exec, a
// second WAL and shards are not on a restart's path.
func (r *recInst) rungs() []rung {
	return []rung{
		{"raw", plainRung(r.readLog)},
		{"kernel", plainRung(func() error {
			recs, err := wal.Records(r.dir)
			if err == nil && len(recs) != r.records {
				err = fmt.Errorf("decoded %d log records, want %d", len(recs), r.records)
			}
			return err
		})},
		{"db4ml", plainRung(r.op)},
	}
}

func (r *recInst) detail(out io.Writer) error {
	bytes, err := dirBytes(r.dir)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "  log replayed per restart: %d records, %d bytes, %d rows loaded + %d uber-commits of %d rows\n",
		r.records, bytes, r.total, r.commits, r.rows)
	return nil
}
