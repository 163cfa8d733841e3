package db4ml

// Tests of the one DB of N >= 1 kernels: what every kernel count shares
// (loads, Close, GC telemetry, Begin) and what one kernel must not pay for
// the cluster (per-row translation on the ML set-up path).

import (
	"context"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"db4ml/internal/alloctest"
	"db4ml/internal/exec"
)

// TestClusterConcurrentBulkLoadsSurviveRestart: concurrent loads into one
// two-kernel table each log the first row id their load was assigned, so a
// restart replays every one of them at its own ids.
func TestClusterConcurrentBulkLoadsSurviveRestart(t *testing.T) {
	const loaders, rows = 16, 200
	dir := t.TempDir()
	db := Open(WithShards(2), WithWorkers(1), WithWAL(dir))
	tbl, err := db.CreateTable("T", Column{Name: "ID", Type: Int64})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, loaders)
	for l := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			load := make([]Payload, rows)
			for i := range load {
				load[i] = Payload{uint64(l*rows + i)}
			}
			errs[l] = db.BulkLoad(tbl, load)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	read := func(db *DB, tbl *Table) []uint64 {
		tx := db.Begin()
		defer tx.Abort()
		out := make([]uint64, tbl.NumRows())
		for i := range out {
			p, ok := tx.Read(tbl, RowID(i))
			if !ok {
				t.Fatalf("row %d unreadable", i)
			}
			out[i] = p[0]
		}
		return out
	}
	before := read(db, tbl)
	if len(before) != loaders*rows {
		t.Fatalf("%d rows before the restart, want %d", len(before), loaders*rows)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := Open(WithShards(2), WithWorkers(1), WithWAL(dir))
	defer db2.Close()
	after := read(db2, db2.Table("T"))
	if len(after) != len(before) {
		t.Fatalf("%d rows after the restart, %d before", len(after), len(before))
	}
	for i := range after {
		if after[i] != before[i] {
			t.Fatalf("row %d reads %d after the restart, %d before", i, after[i], before[i])
		}
	}
}

// TestClusterCloseDuringBackoffStartsNoAttempt is the one Close order on
// two kernels: the pools stop before Close waits for the handles, so a run
// waiting out a retry backoff resolves with ErrClosed after one attempt
// instead of committing a second one.
func TestClusterCloseDuringBackoffStartsNoAttempt(t *testing.T) {
	const n = 8
	db, tbl := openShardedCounters(t, 2, n)
	subs, budget := flakySubs(tbl, n, 3, 1)
	h, err := db.SubmitML(context.Background(), MLRun{
		Isolation: MLOptions{Level: Asynchronous},
		Attach:    []Attachment{{Table: tbl}},
		Subs:      subs,
		Retry:     &RetryPolicy{MaxAttempts: 3, BaseBackoff: 300 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	for budget.Load() > 0 {
		time.Sleep(time.Millisecond)
	}
	// The planted panic fired: the first attempt is failing or failed, and
	// the retry loop waits out the backoff.
	time.Sleep(50 * time.Millisecond)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Wait(); !errors.Is(err, ErrClosed) || h.Attempts() != 1 {
		t.Fatalf("run closed in its backoff: attempts=%d err=%v, want 1 attempt and ErrClosed", h.Attempts(), err)
	}
	tx := db.Begin()
	defer tx.Abort()
	for i := 0; i < n; i++ {
		if p, ok := tx.Read(tbl, RowID(i)); !ok || p.Float64(1) != 0 {
			t.Fatalf("row %d = (%v, %v) after the closed run, want untouched", i, p, ok)
		}
	}
}

// TestClusterDebugServerCountsGCPasses: every kernel's reclaimer reports
// into its kernel's aggregator, so after one PruneNow a two-kernel debug
// server's /metrics counts a GC pass per kernel.
func TestClusterDebugServerCountsGCPasses(t *testing.T) {
	const n = 8
	db, tbl := openShardedCounters(t, 2, n, WithDebugServer("127.0.0.1:0"))
	defer db.Close()
	subs := make([]IterativeTransaction, n)
	for i := range subs {
		subs[i] = &incSub{tbl: tbl, row: RowID(i), target: 4}
	}
	if _, err := db.RunML(MLRun{
		Isolation: MLOptions{Level: Asynchronous},
		Attach:    []Attachment{{Table: tbl}},
		Subs:      subs,
	}); err != nil {
		t.Fatal(err)
	}
	pruned := db.PruneNow()
	body := scrapeURL(t, "http://"+db.DebugAddr()+"/metrics")
	if v := metricValue(body, "db4ml_gc_passes_total"); v != 2 {
		t.Fatalf("/metrics db4ml_gc_passes_total = %v after one PruneNow on 2 kernels, want 2", v)
	}
	if v := metricValue(body, "db4ml_versions_pruned_total"); v != float64(pruned) || pruned == 0 {
		t.Fatalf("/metrics db4ml_versions_pruned_total = %v, PruneNow reclaimed %d", v, pruned)
	}
}

// TestClusterBeginReadsOneCut: Begin on several kernels reads at one
// timestamp pinned on every kernel until the transaction settles, refuses
// every write with ErrCrossKernelWrite, and a cluster's PrepareQuery
// returns an error (its queries have no single cursor).
func TestClusterBeginReadsOneCut(t *testing.T) {
	const n = 6
	db, tbl := openShardedCounters(t, 3, n)
	defer db.Close()
	tx := db.Begin()
	if tx.BeginTS() != db.Stable() {
		t.Fatalf("cut at %d, stable %d", tx.BeginTS(), db.Stable())
	}
	for s, m := range db.managers() {
		if pins := m.ActiveSnapshots(); pins != 1 {
			t.Fatalf("kernel %d: %d pins, want the cut's 1", s, pins)
		}
	}
	for i := 0; i < n; i++ {
		if p, ok := tx.Read(tbl, RowID(i)); !ok || p.Int64(0) != int64(i) {
			t.Fatalf("row %d = (%v, %v)", i, p, ok)
		}
	}
	if err := tx.Write(tbl, 0, Payload{0, 1}); !errors.Is(err, ErrCrossKernelWrite) {
		t.Fatalf("Write = %v, want ErrCrossKernelWrite", err)
	}
	if err := tx.Insert(tbl, Payload{0, 1}); !errors.Is(err, ErrCrossKernelWrite) {
		t.Fatalf("Insert = %v, want ErrCrossKernelWrite", err)
	}
	if err := tx.Delete(tbl, 0); !errors.Is(err, ErrCrossKernelWrite) {
		t.Fatalf("Delete = %v, want ErrCrossKernelWrite", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("read-only Commit = %v", err)
	}
	for s, m := range db.managers() {
		if pins := m.ActiveSnapshots(); pins != 0 {
			t.Fatalf("kernel %d: %d pins after Commit", s, pins)
		}
	}
	if prep, err := db.PrepareQuery(Scan(tbl)); err == nil || prep != nil {
		t.Fatalf("PrepareQuery on 3 kernels = (%v, %v), want an error", prep, err)
	}
}

// TestSubmitMLSetupAllocsIndependentOfAttachedRows holds one kernel's ML
// set-up to the runner's: SubmitML + Wait costs the same number of
// allocations more than exec.StartUber + Finish of the same attachment
// with 16 attached row ids as with 4 096, so no per-row work (a shard
// translation of the row ids) runs on one kernel.
func TestSubmitMLSetupAllocsIndependentOfAttachedRows(t *testing.T) {
	db, tbl := openWithCounters(t, 4096, WithWorkers(1))
	defer db.Close()
	overhead := func(k int) (mallocs, bytes int64) {
		rows := make([]RowID, k)
		for i := range rows {
			rows[i] = RowID(i)
		}
		attach := []Attachment{{Table: tbl, Rows: rows}}
		iso := MLOptions{Level: Asynchronous}
		facade := alloctest.Min(7, func() func() {
			return func() {
				h, err := db.SubmitML(context.Background(), MLRun{Isolation: iso, Attach: attach})
				if err == nil {
					_, err = h.Wait()
				}
				if err != nil {
					t.Fatal(err)
				}
			}
		})
		k0 := db.Cluster().Kernel(0)
		runner := alloctest.Min(7, func() func() {
			return func() {
				r, err := exec.StartUber(exec.UberSpec{Isolation: iso, Parts: []exec.UberPart{{
					Pool: k0.Pool(), Mgr: k0.Mgr(), Attach: attach, Build: subsOf(nil),
				}}})
				if err == nil {
					_, _, err = r.Finish()
				}
				if err != nil {
					t.Fatal(err)
				}
			}
		})
		return int64(facade.Mallocs) - int64(runner.Mallocs), int64(facade.Bytes) - int64(runner.Bytes)
	}
	small, smallBytes := overhead(16)
	large, largeBytes := overhead(4096)
	if small != large {
		t.Fatalf("SubmitML set-up allocations beyond the runner: %d with 16 attached rows, %d with 4096", small, large)
	}
	// A translation of 4 080 more row ids would cost at least 16 KiB more.
	if d := largeBytes - smallBytes; d > 1024 || d < -1024 {
		t.Fatalf("SubmitML set-up bytes beyond the runner: %d with 16 attached rows, %d with 4096", smallBytes, largeBytes)
	}
}

// TestOpenShardedNamedOnlyByDeclarations: outside bench/, no Go file names
// OpenSharded or ShardedDB except their two declarations — ShardedDB an
// alias of DB, OpenSharded a one-statement wrapper — so every caller opens
// a DB with Open(WithShards(n)).
func TestOpenShardedNamedOnlyByDeclarations(t *testing.T) {
	root, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	decls := 0
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			if rel == "bench" || (rel != "." && (d.Name()[0] == '.' || d.Name() == "testdata")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		declared := map[*ast.Ident]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSpec:
				if n.Name.Name == "ShardedDB" && rel == "sharded.go" {
					if to, ok := n.Type.(*ast.Ident); !n.Assign.IsValid() || !ok || to.Name != "DB" {
						t.Errorf("%s: ShardedDB must be an alias of DB", fset.Position(n.Pos()))
					}
					declared[n.Name] = true
					decls++
				}
			case *ast.FuncDecl:
				if n.Name.Name == "OpenSharded" && n.Recv == nil && rel == "sharded.go" {
					if len(n.Body.List) != 1 {
						t.Errorf("%s: OpenSharded must be a one-statement wrapper of Open", fset.Position(n.Pos()))
					}
					declared[n.Name] = true
					decls++
				}
			case *ast.Ident:
				if (n.Name == "OpenSharded" || n.Name == "ShardedDB") && !declared[n] {
					t.Errorf("%s: %s named outside its declaration; use Open(WithShards(n)) and *DB", fset.Position(n.Pos()), n.Name)
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if decls != 2 {
		t.Fatalf("found %d of the two declarations", decls)
	}
}
