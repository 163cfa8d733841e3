package exec

import (
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"db4ml/internal/isolation"
	"db4ml/internal/itx"
	"db4ml/internal/resilience"
	"db4ml/internal/storage"
	"db4ml/internal/table"
	"db4ml/internal/txn"
)

// loadCounters loads a one-column table of n rows holding 10, 11, ...
func loadCounters(t *testing.T, mgr *txn.Manager, name string, n int) *table.Table {
	t.Helper()
	tbl := table.New(name, table.MustSchema(table.Column{Name: "V", Type: table.Int64}))
	mgr.PublishAt(func(ts storage.Timestamp) {
		for i := 0; i < n; i++ {
			if _, err := tbl.Append(ts, storage.Payload{uint64(10 + i)}); err != nil {
				t.Error(err)
			}
		}
	})
	return tbl
}

// countTo builds one counterSub per row of tbl, each counting its row up
// by target increments.
func countTo(tbl *table.Table, target uint64) func(storage.Timestamp) ([]itx.Sub, func(int) int, error) {
	return func(storage.Timestamp) ([]itx.Sub, func(int) int, error) {
		subs := make([]itx.Sub, tbl.NumRows())
		for i := range subs {
			subs[i] = &counterSub{rec: tbl.IterRecord(table.RowID(i)), target: target}
		}
		return subs, nil, nil
	}
}

func rowsAt(tbl *table.Table, ts storage.Timestamp) string {
	var out []uint64
	tbl.Scan(ts, func(_ table.RowID, p storage.Payload) bool {
		out = append(out, p[0])
		return true
	})
	return fmt.Sprint(out)
}

// TestUberRunnerFailuresLeaveNoTrace drives StartUber/Finish through every
// failure point. Each must return its error, leave no snapshot pinned,
// leave the attached rows at their pre-run values, and leave the table
// free for the next uber-transaction to attach.
func TestUberRunnerFailuresLeaveNoTrace(t *testing.T) {
	pool, err := NewPool(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	closed, err := NewPool(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	closed.Close()

	const forever = 1 << 62
	slow := func(int) { time.Sleep(100 * time.Microsecond) }
	iso := isolation.Options{Level: isolation.Asynchronous}
	errBuild := errors.New("build failed")
	cases := []struct {
		name   string
		pool   *Pool
		held   bool // a second attachment is held by another uber-transaction
		build  func(tbl *table.Table) func(storage.Timestamp) ([]itx.Sub, func(int) int, error)
		job    JobConfig
		cancel bool
		want   error // nil: any error
	}{
		{name: "no pool", want: ErrNoPool},
		{name: "attach", pool: pool, held: true},
		{name: "build", pool: pool, build: func(*table.Table) func(storage.Timestamp) ([]itx.Sub, func(int) int, error) {
			return func(storage.Timestamp) ([]itx.Sub, func(int) int, error) { return nil, nil, errBuild }
		}, want: errBuild},
		{name: "closed pool", pool: closed, want: ErrPoolClosed},
		{name: "deadline", pool: pool, job: JobConfig{Deadline: time.Nanosecond, IterationHook: slow}, want: resilience.ErrJobDeadline},
		{name: "panic", pool: pool, build: func(tbl *table.Table) func(storage.Timestamp) ([]itx.Sub, func(int) int, error) {
			return func(storage.Timestamp) ([]itx.Sub, func(int) int, error) {
				subs, execs := make([]itx.Sub, tbl.NumRows()), new(atomic.Int64)
				for i := range subs {
					subs[i] = &panicSub{rec: tbl.IterRecord(table.RowID(i)), target: forever, panicAt: 9, execs: execs}
				}
				return subs, nil, nil
			}
		}, want: resilience.ErrJobPanicked},
		{name: "cancel", pool: pool, job: JobConfig{IterationHook: slow}, cancel: true, want: ErrJobCancelled},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			mgr := txn.NewManager()
			tbl := loadCounters(t, mgr, "T", 4)
			part := UberPart{Pool: c.pool, Mgr: mgr, Attach: []itx.Attachment{{Table: tbl}}, Build: countTo(tbl, forever), Job: c.job}
			if c.build != nil {
				part.Build = c.build(tbl)
			}
			if c.held {
				other := loadCounters(t, mgr, "Held", 2)
				holder, err := itx.BeginUber(mgr, iso)
				if err != nil {
					t.Fatal(err)
				}
				if err := holder.Attach(other, nil, 0); err != nil {
					t.Fatal(err)
				}
				defer func() {
					if err := holder.Abort(); err != nil {
						t.Error(err)
					}
				}()
				part.Attach = append(part.Attach, itx.Attachment{Table: other})
			}
			before := rowsAt(tbl, mgr.Stable())

			r, err := StartUber(UberSpec{Isolation: iso, Parts: []UberPart{part}})
			if err == nil {
				if c.cancel {
					r.Cancel()
				}
				_, _, err = r.Finish()
			}
			if err == nil || (c.want != nil && !errors.Is(err, c.want)) {
				t.Fatalf("err = %v, want %v", err, c.want)
			}

			want := 0
			if c.held {
				want = 1 // the holder's own pin
			}
			if n := mgr.ActiveSnapshots(); n != want {
				t.Fatalf("%d snapshots pinned after the failed run, want %d", n, want)
			}
			if after := rowsAt(tbl, mgr.Stable()); after != before {
				t.Fatalf("failed run changed the table: before %s, after %s", before, after)
			}
			next, err := itx.BeginUber(mgr, iso)
			if err != nil {
				t.Fatal(err)
			}
			if err := next.Attach(tbl, nil, 0); err != nil {
				t.Fatalf("fresh attach after the failed run: %v", err)
			}
			if err := next.Abort(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestUberRunnerCommits: a converging job commits every attached row at
// the returned timestamp and releases the snapshot pin.
func TestUberRunnerCommits(t *testing.T) {
	pool, err := NewPool(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	mgr := txn.NewManager()
	tbl := loadCounters(t, mgr, "T", 4)
	r, err := StartUber(UberSpec{
		Isolation: isolation.Options{Level: isolation.Asynchronous},
		Parts: []UberPart{{
			Pool: pool, Mgr: mgr, Attach: []itx.Attachment{{Table: tbl}}, Build: countTo(tbl, 20),
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, ts, err := r.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rowsAt(tbl, ts), "[20 20 20 20]"; got != want {
		t.Fatalf("committed rows %s, want %s", got, want)
	}
	if n := mgr.ActiveSnapshots(); n != 0 {
		t.Fatalf("%d snapshots pinned after commit", n)
	}
}

// TestBeginUberOnlyInRunner keeps the uber-transaction lifecycle written
// once: outside tests and the bench module, itx.BeginUber may be named
// only by this package's runner, which begins one uber-transaction per
// part on one kernel or many.
func TestBeginUberOnlyInRunner(t *testing.T) {
	allowed := map[string]bool{
		"internal/exec/uber.go": true,
	}
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
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
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		name := ""
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "db4ml/internal/itx" {
				name = "itx"
				if imp.Name != nil {
					name = imp.Name.Name
				}
			}
		}
		if name == "" || allowed[rel] {
			return nil
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "BeginUber" {
				return true
			}
			if x, ok := sel.X.(*ast.Ident); ok && x.Name == name {
				t.Errorf("%s: itx.BeginUber outside the runner; start the uber-transaction with exec.StartUber", fset.Position(sel.Pos()))
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
