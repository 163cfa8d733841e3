package db4ml

// Durability facade tests: restart round-trips through WithWAL at one and
// four shards, recovery idempotence, fuzzy checkpoints with WAL truncation,
// and the crash kill-points' unacknowledged-and-absent contract. The
// systematic kill-point matrix lives in internal/check; these tests pin
// the public API surface.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"db4ml/internal/checkpoint"
	"db4ml/internal/storage"
	"db4ml/internal/txn"
	"db4ml/internal/wal"
)

// openDurable opens a single-kernel database over dir with the Counter
// table created (or recovered) and, when load is true, n rows bulk-loaded.
func openDurable(t *testing.T, dir string, load bool, n int, opts ...Option) (*DB, *Table) {
	t.Helper()
	db := Open(append([]Option{WithWAL(dir), WithWorkers(2)}, opts...)...)
	return db, counterTable(t, db, load, n)
}

// counterTable returns db's Counter table, creating it if recovery did not,
// and bulk-loads n rows into it when load is true and it is empty.
func counterTable(t *testing.T, db interface {
	Table(name string) *Table
	CreateTable(name string, cols ...Column) (*Table, error)
	BulkLoad(tbl *Table, rows []Payload) error
}, load bool, n int) *Table {
	t.Helper()
	tbl := db.Table("Counter")
	if tbl == nil {
		var err error
		tbl, err = db.CreateTable("Counter",
			Column{Name: "ID", Type: Int64},
			Column{Name: "Value", Type: Float64},
		)
		if err != nil {
			t.Fatal(err)
		}
	}
	if load && tbl.NumRows() == 0 {
		rows := make([]Payload, n)
		for i := range rows {
			p := tbl.Schema().NewPayload()
			p.SetInt64(0, int64(i))
			p.SetFloat64(1, 0)
			rows[i] = p
		}
		if err := db.BulkLoad(tbl, rows); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

// runIncTo drives every row of tbl to target with one ML job. run abstracts
// over the single-kernel and sharded RunML signatures.
func runIncTo(t *testing.T, run func(MLRun) error, tbl *Table, n int, target float64) {
	t.Helper()
	subs := make([]IterativeTransaction, n)
	for i := range subs {
		subs[i] = &incSub{tbl: tbl, row: RowID(i), target: target}
	}
	if err := run(MLRun{
		Isolation: MLOptions{Level: Asynchronous},
		BatchSize: 4,
		Attach:    []Attachment{{Table: tbl}},
		Subs:      subs,
	}); err != nil {
		t.Fatal(err)
	}
}

func mlRunner(db *DB) func(MLRun) error {
	return func(r MLRun) error { _, err := db.RunML(r); return err }
}

func mlRunnerSharded(db *ShardedDB) func(MLRun) error {
	return func(r MLRun) error { _, err := db.RunML(r); return err }
}

// dump reads (id, value) for n rows through a snapshot reader.
type rowReader interface {
	Read(tbl *Table, row RowID) (Payload, bool)
}

func dump(t *testing.T, tx rowReader, tbl *Table, n int) []([2]float64) {
	t.Helper()
	out := make([][2]float64, n)
	for i := 0; i < n; i++ {
		p, ok := tx.Read(tbl, RowID(i))
		if !ok {
			t.Fatalf("row %d invisible", i)
		}
		out[i] = [2]float64{float64(p.Int64(0)), p.Float64(1)}
	}
	return out
}

func wantValues(t *testing.T, got [][2]float64, target float64) {
	t.Helper()
	for i, r := range got {
		if r[0] != float64(i) || r[1] != target {
			t.Fatalf("row %d = (%v, %v), want (%d, %v)", i, r[0], r[1], i, target)
		}
	}
}

// topology is one shape a durable database can be opened in: a single
// kernel (shards == 0) or a round-robin sharded cluster.
type topology struct{ shards int }

func (tp topology) String() string {
	if tp.shards == 0 {
		return "single"
	}
	return fmt.Sprintf("%dshards", tp.shards)
}

// durableDB is the surface both facades share that the restart tests use.
type durableDB interface {
	Checkpoint() error
	Close() error
	Stable() Timestamp
	managers() []*txn.Manager
}

// open opens dir in this topology with the Counter table created (or
// recovered) and loaded, and returns the table, an ML runner, and a reader
// of every row's (id, value) at the current snapshot.
func (tp topology) open(t *testing.T, dir string, n int) (durableDB, *Table, func(MLRun) error, func() [][2]float64) {
	t.Helper()
	if tp.shards == 0 {
		db, tbl := openDurable(t, dir, true, n)
		return db, tbl, mlRunner(db), func() [][2]float64 {
			tx := db.Begin()
			defer tx.Abort()
			return dump(t, tx, tbl, n)
		}
	}
	db := OpenSharded(WithShards(tp.shards), WithShardScheme(ShardRoundRobin),
		WithWorkers(2), WithWAL(dir))
	tbl := counterTable(t, db, true, n)
	// Placement is rebuilt from this database's configuration, whatever
	// topology wrote the log: round-robin spreads the rows over every shard.
	st := db.ShardedTable("Counter")
	seen := map[int]bool{}
	for i := 0; i < n; i++ {
		seen[st.ShardOf(RowID(i))] = true
	}
	if len(seen) != tp.shards {
		t.Fatalf("rows on %d shards, want %d", len(seen), tp.shards)
	}
	return db, tbl, mlRunnerSharded(db), func() [][2]float64 {
		tx := db.Begin()
		defer tx.Close()
		return dump(t, tx, tbl, n)
	}
}

// TestDurabilityRestartRoundTrip recovers every writer topology's log in
// every reader topology, from the log alone and from a checkpoint plus a
// log tail: the recovered rows and values match, the reader's own commits
// are logged, and a restart in the writer's topology replays both
// generations. Recovery rebuilds placement from the opening database's
// configuration, so a log is not tied to the shard count that wrote it.
func TestDurabilityRestartRoundTrip(t *testing.T) {
	const n = 8
	topos := []topology{{0}, {2}, {4}}
	for _, w := range topos {
		for _, r := range topos {
			for _, ckpt := range []bool{false, true} {
				mode := "log"
				if ckpt {
					mode = "checkpoint+tail"
				}
				t.Run(fmt.Sprintf("%v-to-%v/%s", w, r, mode), func(t *testing.T) {
					dir := t.TempDir()
					closeDB := func(db durableDB) {
						if err := db.Close(); err != nil {
							t.Fatal(err)
						}
					}

					db, tbl, run, _ := w.open(t, dir, n)
					runIncTo(t, run, tbl, n, 5)
					if ckpt {
						if err := db.Checkpoint(); err != nil {
							t.Fatal(err)
						}
						runIncTo(t, run, tbl, n, 6) // lands in the tail
					}
					closeDB(db)
					want := 5.0
					if ckpt {
						want = 6
					}

					db2, tbl2, run2, snap2 := r.open(t, dir, n)
					if tbl2.NumRows() != n {
						t.Fatalf("recovered %d rows, want %d", tbl2.NumRows(), n)
					}
					wantValues(t, snap2(), want)
					// The recovered database accepts new work whose commits
					// are logged too.
					runIncTo(t, run2, tbl2, n, 9)
					if ckpt {
						if err := db2.Checkpoint(); err != nil {
							t.Fatal(err)
						}
					}
					closeDB(db2)

					db3, _, _, snap3 := w.open(t, dir, n)
					defer closeDB(db3)
					wantValues(t, snap3(), 9)
				})
			}
		}
	}
}

// TestDurabilityShardedRestartRoundTrip restarts a four-shard cluster
// twice in the same topology: first from the log alone, then from the
// checkpoint the recovered cluster writes after a second generation of
// distributed commits. open checks the round-robin spread over all four
// shards on every restart.
func TestDurabilityShardedRestartRoundTrip(t *testing.T) {
	const n = 8
	dir := t.TempDir()
	four := topology{4}

	db, tbl, run, _ := four.open(t, dir, n)
	runIncTo(t, run, tbl, n, 5)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, tbl2, run2, snap2 := four.open(t, dir, n)
	if tbl2.NumRows() != n {
		t.Fatalf("recovered %d rows, want %d", tbl2.NumRows(), n)
	}
	wantValues(t, snap2(), 5)
	runIncTo(t, run2, tbl2, n, 9)
	if err := db2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db2.Close(); err != nil {
		t.Fatal(err)
	}

	db3, _, _, snap3 := four.open(t, dir, n)
	defer db3.Close()
	wantValues(t, snap3(), 9)
}

// TestDurabilityRecoveryIdempotent recovers from the same unchanged log
// twice and demands bit-identical results: same values, same stable
// watermark, same version-chain shapes. The per-row install guard is what
// makes a record's second application a no-op.
func TestDurabilityRecoveryIdempotent(t *testing.T) {
	const n = 4
	dir := t.TempDir()

	db, tbl := openDurable(t, dir, true, n)
	runIncTo(t, mlRunner(db), tbl, n, 3)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	shape := func(db *DB, tbl *Table) (Timestamp, [][2]float64, []int) {
		lens := make([]int, n)
		for i := range lens {
			lens[i] = tbl.Chain(RowID(i)).Len()
		}
		return db.Stable(), dump(t, db.Begin(), tbl, n), lens
	}

	db1, tbl1 := openDurable(t, dir, false, n)
	s1, v1, l1 := shape(db1, tbl1)
	if err := db1.Close(); err != nil {
		t.Fatal(err)
	}
	db2, tbl2 := openDurable(t, dir, false, n)
	defer db2.Close()
	s2, v2, l2 := shape(db2, tbl2)

	if s1 != s2 {
		t.Fatalf("stable differs across recoveries: %d vs %d", s1, s2)
	}
	for i := range v1 {
		if v1[i] != v2[i] || l1[i] != l2[i] {
			t.Fatalf("row %d differs across recoveries: %v/%d vs %v/%d",
				i, v1[i], l1[i], v2[i], l2[i])
		}
	}
	wantValues(t, v2, 3)
}

// TestInstallReplayIdempotent pins the guard directly: applying the same
// after-image twice installs exactly one version.
func TestInstallReplayIdempotent(t *testing.T) {
	db, tbl := openWithCounters(t, 2)
	defer db.Close()
	p := tbl.Schema().NewPayload()
	p.SetInt64(0, 0)
	p.SetFloat64(1, 42)
	ts := db.Stable() + 1
	tu := wal.TableUpdate{Table: tbl.Name(), Rows: []wal.RowUpdate{{Row: 0, Payload: p}}}
	var arena storage.RecordArena
	db.mgr.Prepare().CommitAt(ts, func(ts Timestamp) { installReplay(tbl, tu, ts, &arena) })
	want := tbl.Chain(0).Len()
	db.mgr.Prepare().CommitAt(ts, func(ts Timestamp) { installReplay(tbl, tu, ts, &arena) })
	if got := tbl.Chain(0).Len(); got != want {
		t.Fatalf("second replay grew the chain: %d -> %d", want, got)
	}
	if got, _ := db.Begin().Read(tbl, 0); got.Float64(1) != 42 {
		t.Fatalf("replayed value = %v, want 42", got.Float64(1))
	}
}

func countFiles(t *testing.T, dir, contains string) int {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range ents {
		if strings.Contains(e.Name(), contains) {
			n++
		}
	}
	return n
}

func TestCheckpointTruncatesWALAndRecovers(t *testing.T) {
	const n = 6
	dir := t.TempDir()

	db, tbl := openDurable(t, dir, true, n)
	runIncTo(t, mlRunner(db), tbl, n, 4)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := countFiles(t, dir, ".db4m"); got != 1 {
		t.Fatalf("%d checkpoint files, want 1", got)
	}
	// The checkpoint rolled the log and truncated below its boundary: only
	// the fresh active segment survives.
	if got := countFiles(t, dir, ".seg"); got != 1 {
		t.Fatalf("%d WAL segments after checkpoint, want 1", got)
	}
	// Work after the checkpoint lands in the surviving tail.
	runIncTo(t, mlRunner(db), tbl, n, 7)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Recovery = checkpoint restore + tail replay.
	db2, tbl2 := openDurable(t, dir, false, n)
	wantValues(t, dump(t, db2.Begin(), tbl2, n), 7)

	// A second checkpoint on the recovered database supersedes the first.
	if err := db2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := countFiles(t, dir, ".db4m"); got != 2 {
		t.Fatalf("%d checkpoint files, want 2", got)
	}

	// A back-to-back checkpoint on the idle database rolls an empty
	// segment; the log must keep accepting commits that survive a restart.
	if err := db2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	runIncTo(t, mlRunner(db2), tbl2, n, 9)
	if err := db2.Close(); err != nil {
		t.Fatal(err)
	}
	db3, tbl3 := openDurable(t, dir, false, n)
	defer db3.Close()
	wantValues(t, dump(t, db3.Begin(), tbl3, n), 9)
}

// TestCheckpointCutPinsStable pins the checkpoint cut's timestamp on an
// idle database: on one kernel it is the stable watermark PinSnapshot pins,
// across shards the watermark every shard shares, and the checkpoint
// releases every pin it took.
func TestCheckpointCutPinsStable(t *testing.T) {
	for _, tp := range []topology{{0}, {3}} {
		t.Run(tp.String(), func(t *testing.T) {
			dir := t.TempDir()
			db, tbl, run, _ := tp.open(t, dir, 6)
			defer db.Close()
			runIncTo(t, run, tbl, 6, 2)
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			loaded, err := checkpoint.LatestValid(dir)
			if err != nil {
				t.Fatal(err)
			}
			stable := db.Stable()
			if loaded.Meta.TS != stable {
				t.Fatalf("checkpoint cut at %d, stable watermark %d", loaded.Meta.TS, stable)
			}
			for s, m := range db.managers() {
				if m.Stable() != stable || m.ActiveSnapshots() != 0 {
					t.Fatalf("manager %d: stable %d, %d pins left", s, m.Stable(), m.ActiveSnapshots())
				}
			}
		})
	}
}

// TestRecoveryErrorPanicsWithPrefix feeds both facades a log whose load
// record names a table no creation record made: Open and OpenSharded panic
// with the recovery prefix rather than serving a half-recovered database.
func TestRecoveryErrorPanicsWithPrefix(t *testing.T) {
	for name, open := range map[string]func(dir string){
		"single":  func(dir string) { Open(WithWAL(dir)) },
		"sharded": func(dir string) { OpenSharded(WithShards(2), WithWAL(dir)) },
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			l, err := wal.Open(wal.Options{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			if err := l.Append(&wal.Record{Kind: wal.KindLoad, TS: 1, Table: "Ghost",
				Rows: []Payload{{0}}}); err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			msg := func() (msg string) {
				defer func() { msg, _ = recover().(string) }()
				open(dir)
				return ""
			}()
			if !strings.HasPrefix(msg, "db4ml: recovery: ") || !strings.Contains(msg, `"Ghost"`) {
				t.Fatalf("recovery panic = %q, want the db4ml: recovery: prefix naming Ghost", msg)
			}
		})
	}
}

// TestRecoveryCountsOnlyAppliedRecords replays a log that repeats a table's
// create and its load — the overlap a checkpoint taken between a create
// and its table scan leaves behind. The repeats apply nothing, so
// RecoveryReplays counts only the first create and the first load, and the
// stable watermark stays at the load that applied.
func TestRecoveryCountsOnlyAppliedRecords(t *testing.T) {
	dir := t.TempDir()
	l, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	cols := []Column{{Name: "V", Type: Float64}}
	rows := []Payload{{1}, {2}}
	for _, rec := range []*wal.Record{
		{Kind: wal.KindCreateTable, Table: "T", Cols: cols},
		{Kind: wal.KindLoad, TS: 1, Table: "T", Rows: rows},
		{Kind: wal.KindCreateTable, Table: "T", Cols: cols},
		{Kind: wal.KindLoad, TS: 2, Table: "T", Rows: rows},
	} {
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	check := func(name string, replays uint64, stable Timestamp, n int) {
		t.Helper()
		if replays != 2 || stable != 1 || n != len(rows) {
			t.Fatalf("%s: RecoveryReplays %d, stable %d, %d rows; want 2, 1, %d",
				name, replays, stable, n, len(rows))
		}
	}
	db := Open(WithWAL(dir), WithDebugServer("127.0.0.1:0"))
	check("single", db.agg.Snapshot().Counters.RecoveryReplays, db.mgr.Stable(), db.Table("T").NumRows())
	db.Close()
	sdb := OpenSharded(WithShards(2), WithWAL(dir), WithDebugServer("127.0.0.1:0"))
	check("sharded", sdb.agg.Shard(0).Snapshot().Counters.RecoveryReplays,
		sdb.cluster.Kernel(0).Mgr().Stable(), sdb.ShardedTable("T").NumRows())
	sdb.Close()
}

func TestCheckpointRequiresWAL(t *testing.T) {
	db := Open()
	defer db.Close()
	if err := db.Checkpoint(); err == nil {
		t.Fatal("Checkpoint without WithWAL succeeded")
	}
	sdb := OpenSharded(WithShards(2))
	defer sdb.Close()
	if err := sdb.Checkpoint(); err == nil {
		t.Fatal("sharded Checkpoint without WithWAL succeeded")
	}
}

// TestCheckpointCachesUnchangedSections takes two checkpoints with an
// untouched table in between and verifies the second checkpoint is still
// complete and correct — the cached section must be the real bytes, not a
// stale or empty placeholder.
func TestCheckpointCachesUnchangedSections(t *testing.T) {
	dir := t.TempDir()
	db, tbl := openDurable(t, dir, true, 4)
	defer db.Close()

	frozen, err := db.CreateTable("Frozen", Column{Name: "x", Type: Float64})
	if err != nil {
		t.Fatal(err)
	}
	p := frozen.Schema().NewPayload()
	p.SetFloat64(0, 9)
	if err := db.BulkLoad(frozen, []Payload{p}); err != nil {
		t.Fatal(err)
	}

	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	runIncTo(t, mlRunner(db), tbl, 4, 2) // mutate Counter only
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// An index created on the now-unchanged table must invalidate its
	// cached section: the next checkpoint has to carry the definition.
	if err := tbl.CreateHashIndex("ID"); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	// Wipe the WAL's contribution by reopening from the checkpoint alone:
	// delete the segments so recovery can only use the newest checkpoint.
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".seg") {
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}
	db2, tbl2 := openDurable(t, dir, false, 4)
	defer db2.Close()
	wantValues(t, dump(t, db2.Begin(), tbl2, 4), 2)
	if tbl2.HashIndex("ID") == nil {
		t.Fatal("index created after a cached checkpoint lost across restart")
	}
	fz := db2.Table("Frozen")
	if fz == nil || fz.NumRows() != 1 {
		t.Fatal("cached Frozen section lost")
	}
	if got, _ := db2.Begin().Read(fz, 0); got.Float64(0) != 9 {
		t.Fatalf("Frozen row = %v, want 9", got.Float64(0))
	}
}

// TestCrashPointUnackedAbsent smokes the kill-point contract at the facade:
// a run crashed after its in-memory publish (but before the WAL append) is
// never acknowledged, and after recovery its commit is absent.
func TestCrashPointUnackedAbsent(t *testing.T) {
	const n = 4
	dir := t.TempDir()

	db, tbl := openDurable(t, dir, true, n, WithCrashPoints(NewCrashKiller(CrashAfterPublish)))
	subs := make([]IterativeTransaction, n)
	for i := range subs {
		subs[i] = &incSub{tbl: tbl, row: RowID(i), target: 3}
	}
	_, err := db.RunML(MLRun{
		Isolation: MLOptions{Level: Asynchronous},
		BatchSize: 4,
		Attach:    []Attachment{{Table: tbl}},
		Subs:      subs,
	})
	if err != ErrCrashed {
		t.Fatalf("crashed run returned %v, want ErrCrashed", err)
	}
	// The values ARE published in the dying process's memory — that is the
	// point of this kill window.
	if got, _ := db.Begin().Read(tbl, 0); got.Float64(1) != 3 {
		t.Fatalf("pre-crash memory = %v, want 3", got.Float64(1))
	}
	db.Close()

	db2, tbl2 := openDurable(t, dir, false, n)
	defer db2.Close()
	wantValues(t, dump(t, db2.Begin(), tbl2, n), 0)
}

// TestCrashAfterPrepareNothingPublished: on one kernel, as on many, the
// after-prepare kill-point fires with the commit lock held and nothing
// published — the crashed run is not acknowledged, the dying process's
// memory still reads the pre-run values, and no snapshot stays pinned.
func TestCrashAfterPrepareNothingPublished(t *testing.T) {
	const n = 4
	db, tbl := openDurable(t, t.TempDir(), true, n, WithCrashPoints(NewCrashKiller(CrashAfterPrepare)))
	defer db.Close()
	subs := make([]IterativeTransaction, n)
	for i := range subs {
		subs[i] = &incSub{tbl: tbl, row: RowID(i), target: 3}
	}
	h, err := db.SubmitML(context.Background(), MLRun{
		Isolation: MLOptions{Level: Asynchronous},
		BatchSize: 4,
		Attach:    []Attachment{{Table: tbl}},
		Subs:      subs,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Wait(); err != ErrCrashed {
		t.Fatalf("crashed run returned %v, want ErrCrashed", err)
	}
	if h.CommitTS() != 0 {
		t.Fatalf("crashed run acknowledged at %d", h.CommitTS())
	}
	if pins := db.Manager().ActiveSnapshots(); pins != 0 {
		t.Fatalf("%d snapshots pinned after the crash", pins)
	}
	tx := db.Begin()
	defer tx.Abort()
	wantValues(t, dump(t, tx, tbl, n), 0)
}

// TestWALSyncPolicies exercises the two non-default fsync policies through
// a full restart.
func TestWALSyncPolicies(t *testing.T) {
	for _, tc := range []struct {
		name string
		p    WALSyncPolicy
	}{{"interval", WALSyncInterval}, {"none", WALSyncNone}} {
		t.Run(tc.name, func(t *testing.T) {
			const n = 4
			dir := t.TempDir()
			db, tbl := openDurable(t, dir, true, n, WithWALSync(tc.p))
			runIncTo(t, mlRunner(db), tbl, n, 2)
			if err := db.Close(); err != nil { // clean Close fsyncs the tail
				t.Fatal(err)
			}
			db2, tbl2 := openDurable(t, dir, false, n)
			defer db2.Close()
			wantValues(t, dump(t, db2.Begin(), tbl2, n), 2)
		})
	}
}

// wantRowIDs checks a recovered Counter-shaped table row by row: it holds
// rows slots, the absent ones read as missing, and every other row reads
// its own id in column 0.
func wantRowIDs(t *testing.T, name string, rd rowReader, tbl *Table, rows int, absent ...RowID) {
	t.Helper()
	if n := tbl.NumRows(); n != rows {
		t.Fatalf("%s: %d row slots, want %d", name, n, rows)
	}
	for i := 0; i < rows; i++ {
		p, ok := rd.Read(tbl, RowID(i))
		if slices.Contains(absent, RowID(i)) {
			if ok {
				t.Fatalf("%s: absent row %d reads %v", name, i, p)
			}
			continue
		}
		if !ok || p.Int64(0) != int64(i) {
			t.Fatalf("%s: row %d = %v (present %v), want id %d", name, i, p, ok, i)
		}
	}
}

// reopenRowIDs reopens dir in a single kernel and on two shards and checks
// the table named name in each with wantRowIDs.
func reopenRowIDs(t *testing.T, dir, name string, rows int, absent ...RowID) {
	t.Helper()
	db := Open(WithWAL(dir), WithWorkers(1))
	tx := db.Begin()
	wantRowIDs(t, "single", tx, db.Table(name), rows, absent...)
	tx.Abort()
	db.Close()
	sdb := OpenSharded(WithShards(2), WithWorkers(1), WithWAL(dir))
	dtx := sdb.Begin()
	wantRowIDs(t, "2shards", dtx, sdb.Table(name), rows, absent...)
	dtx.Close()
	sdb.Close()
}

// TestCheckpointKeepsRowIDsPastDeletedRow deletes a row, checkpoints, and
// loads one more row: the restored deleted slot must stay a slot (a
// tombstone), or every later row — checkpointed or replayed from the WAL
// tail — shifts onto its neighbour's id.
func TestCheckpointKeepsRowIDsPastDeletedRow(t *testing.T) {
	const n = 8
	dir := t.TempDir()
	db, tbl := openDurable(t, dir, true, n)
	tx := db.Begin()
	if err := tx.Delete(tbl, 2); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.BulkLoad(tbl, []Payload{{n, 0}}); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	reopenRowIDs(t, dir, "Counter", n+1, 2)
}

// TestReplayLoadPastTableEndPadsGap replays a load logged at row 3 of a
// table that recovery rebuilt empty — what a crash leaves when an
// unacknowledged concurrent load is lost while a later one was logged.
// The gap must become tombstones and the load must land at its logged ids.
func TestReplayLoadPastTableEndPadsGap(t *testing.T) {
	dir := t.TempDir()
	l, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []*wal.Record{
		{Kind: wal.KindCreateTable, Table: "T", Cols: []Column{{Name: "ID", Type: Int64}}},
		{Kind: wal.KindLoad, TS: 1, Table: "T", FirstRow: 3, Rows: []Payload{{3}, {4}}},
	} {
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	reopenRowIDs(t, dir, "T", 5, 0, 1, 2)
}

// TestRestartAllocsScaleWithRecords prices a restart's allocations on two
// logs that differ only in the size of their bulk load: restart decodes
// and installs per log record, not per row, so 18 000 more loaded rows
// may cost only a few allocations more.
func TestRestartAllocsScaleWithRecords(t *testing.T) {
	restart := func(rows int) float64 {
		dir := t.TempDir()
		l, err := wal.Open(wal.Options{Dir: dir, Policy: WALSyncNone})
		if err != nil {
			t.Fatal(err)
		}
		load := make([]Payload, rows)
		for i := range load {
			load[i] = Payload{uint64(i), 0}
		}
		recs := []*wal.Record{
			{Kind: wal.KindCreateTable, Table: "Counter", Cols: []Column{
				{Name: "ID", Type: Int64}, {Name: "Value", Type: Float64}}},
			{Kind: wal.KindLoad, TS: 1, Table: "Counter", Rows: load},
		}
		for c := 0; c < 20; c++ {
			tu := wal.TableUpdate{Table: "Counter", Rows: make([]wal.RowUpdate, 256)}
			for i := range tu.Rows {
				tu.Rows[i] = wal.RowUpdate{Row: uint64(i), Payload: Payload{uint64(i), uint64(c + 1)}}
			}
			recs = append(recs, &wal.Record{Kind: wal.KindCommit, TS: Timestamp(c + 2), Tables: []wal.TableUpdate{tu}})
		}
		for _, rec := range recs {
			if err := l.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		db := Open(WithWAL(dir), WithWorkers(1))
		allocs := testing.AllocsPerRun(3, func() {
			db.Close()
			db = Open(WithWAL(dir), WithWorkers(1))
		})
		if n := db.Table("Counter").NumRows(); n != rows {
			t.Fatalf("recovered %d rows, want %d", n, rows)
		}
		db.Close()
		return allocs
	}
	small, large := restart(2000), restart(20000)
	if large-small >= 100 {
		t.Fatalf("restart allocations: %.0f for 2 000 loaded rows, %.0f for 20 000 (+%.0f, want < 100)",
			small, large, large-small)
	}
	t.Logf("restart allocations: %.0f (2 000 rows), %.0f (20 000 rows)", small, large)
}
