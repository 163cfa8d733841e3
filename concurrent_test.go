package db4ml

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"db4ml/internal/exec"
	"db4ml/internal/graph"
	"db4ml/internal/isolation"
	"db4ml/internal/ml/pagerank"
	"db4ml/internal/ml/sgd"
	"db4ml/internal/oltpbench"
	"db4ml/internal/svm"
	"db4ml/internal/txn"
)

func loadCounters(t *testing.T, db *DB, name string, n int) *Table {
	t.Helper()
	tbl, err := db.CreateTable(name,
		Column{Name: "ID", Type: Int64},
		Column{Name: "Value", Type: Float64},
	)
	if err != nil {
		t.Fatal(err)
	}
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
	return tbl
}

func submitCounterJob(t *testing.T, db *DB, tbl *Table, n int, target float64, label string, o *Observer) *JobHandle {
	t.Helper()
	subs := make([]IterativeTransaction, n)
	for i := range subs {
		subs[i] = &incSub{tbl: tbl, row: RowID(i), target: target}
	}
	h, err := db.SubmitML(context.Background(), MLRun{
		Isolation: MLOptions{Level: Asynchronous},
		Label:     label,
		BatchSize: 8,
		Attach:    []Attachment{{Table: tbl}},
		Subs:      subs,
		Observer:  o,
	})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestSubmitMLConcurrentJobsWithOLTP is the headline scenario of the
// persistent engine: one DB, whose pool was started once at Open, drives
// two ML uber-transactions concurrently while a SmallBank OLTP workload
// hammers unrelated tables of the same database. Both jobs must converge
// with exact per-job stats and disjoint, correctly labelled telemetry.
func TestSubmitMLConcurrentJobsWithOLTP(t *testing.T) {
	db := Open(WithWorkers(4))
	defer db.Close()

	const nA, targetA = 48, 9.0
	const nB, targetB = 32, 6.0
	tblA := loadCounters(t, db, "A", nA)
	tblB := loadCounters(t, db, "B", nB)

	bank, err := oltpbench.Setup(db.Manager(), 64, 1000)
	if err != nil {
		t.Fatal(err)
	}
	before := bank.TotalBalance()

	oa, ob := NewObserver(), NewObserver()
	ha := submitCounterJob(t, db, tblA, nA, targetA, "job-a", oa)
	hb := submitCounterJob(t, db, tblB, nB, targetB, "job-b", ob)

	// The classical side keeps committing while both ML jobs are in flight.
	var wg sync.WaitGroup
	var oltp oltpbench.Stats
	var oltpErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		oltp, oltpErr = bank.Run(4, 200, oltpbench.Mix{TransferPct: 100}, 11)
	}()

	statsA, errA := ha.Wait()
	statsB, errB := hb.Wait()
	wg.Wait()
	if errA != nil || errB != nil {
		t.Fatalf("job errors: a=%v b=%v", errA, errB)
	}
	if oltpErr != nil {
		t.Fatalf("oltp: %v", oltpErr)
	}

	// Per-job stats are disjoint and exact: every sub commits once per
	// increment, nothing bleeds between jobs.
	if statsA.Commits != nA*uint64(targetA) {
		t.Fatalf("job-a commits = %d, want %d", statsA.Commits, nA*int(targetA))
	}
	if statsB.Commits != nB*uint64(targetB) {
		t.Fatalf("job-b commits = %d, want %d", statsB.Commits, nB*int(targetB))
	}

	// Telemetry snapshots are per job: right label, right commit count.
	snapA, snapB := oa.Snapshot(), ob.Snapshot()
	if snapA.Job != "job-a" || snapB.Job != "job-b" {
		t.Fatalf("snapshot labels %q/%q", snapA.Job, snapB.Job)
	}
	if snapA.Counters.Commits != statsA.Commits || snapB.Counters.Commits != statsB.Commits {
		t.Fatalf("telemetry bled between jobs: a=%d/%d b=%d/%d",
			snapA.Counters.Commits, statsA.Commits, snapB.Counters.Commits, statsB.Commits)
	}

	// Both results are published and correct.
	for i := 0; i < nA; i++ {
		if p, _ := db.Begin().Read(tblA, RowID(i)); p.Float64(1) != targetA {
			t.Fatalf("tblA row %d = %v", i, p.Float64(1))
		}
	}
	for i := 0; i < nB; i++ {
		if p, _ := db.Begin().Read(tblB, RowID(i)); p.Float64(1) != targetB {
			t.Fatalf("tblB row %d = %v", i, p.Float64(1))
		}
	}

	// The OLTP side committed everything and transfers conserved money.
	if oltp.Committed != 4*200 {
		t.Fatalf("oltp committed %d of %d", oltp.Committed, 4*200)
	}
	if after := bank.TotalBalance(); after != before {
		t.Fatalf("transfer mix leaked money: %v -> %v", before, after)
	}
}

// TestSubmitMLContextCancel: cancelling the context aborts the
// uber-transaction — the job stops early, Wait reports the context error,
// and no updates become visible.
func TestSubmitMLContextCancel(t *testing.T) {
	db := Open(WithWorkers(2))
	defer db.Close()
	tbl := loadCounters(t, db, "C", 4)

	subs := make([]IterativeTransaction, 4)
	for i := range subs {
		subs[i] = &incSub{tbl: tbl, row: RowID(i), target: 1 << 40}
	}
	ctx, cancel := context.WithCancel(context.Background())
	h, err := db.SubmitML(ctx, MLRun{
		Isolation: MLOptions{Level: Asynchronous},
		BatchSize: 1,
		Attach:    []Attachment{{Table: tbl}},
		Subs:      subs,
	})
	if err != nil {
		t.Fatal(err)
	}
	for h.Stats().Commits == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	cancel()
	if _, err := h.Wait(); err != context.Canceled {
		t.Fatalf("Wait after ctx cancel = %v, want context.Canceled", err)
	}
	// Aborted: the table still reads its bulk-loaded zeros.
	if p, _ := db.Begin().Read(tbl, 0); p.Float64(1) != 0 {
		t.Fatalf("cancelled run leaked writes: row 0 = %v", p.Float64(1))
	}
	// The table is reusable by a fresh run.
	if _, err := db.RunML(MLRun{
		Isolation: MLOptions{Level: Asynchronous},
		Attach:    []Attachment{{Table: tbl}},
		Subs:      []IterativeTransaction{&incSub{tbl: tbl, row: 0, target: 2}},
	}); err != nil {
		t.Fatalf("table unusable after cancelled run: %v", err)
	}
}

// TestDBCloseDrainsAndRejects: Close waits for in-flight jobs, then
// further submissions fail with ErrClosed.
func TestDBCloseDrainsAndRejects(t *testing.T) {
	db := Open(WithWorkers(2), WithRegions(2))
	tbl := loadCounters(t, db, "D", 8)
	subs := make([]IterativeTransaction, 8)
	for i := range subs {
		subs[i] = &incSub{tbl: tbl, row: RowID(i), target: 5}
	}
	h, err := db.SubmitML(context.Background(), MLRun{
		Isolation: MLOptions{Level: Asynchronous},
		BatchSize: 2,
		Attach:    []Attachment{{Table: tbl}},
		Subs:      subs,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if stats, err := h.Wait(); err != nil || stats.Commits != 8*5 {
		t.Fatalf("drained job: stats=%+v err=%v", stats, err)
	}
	if _, err := db.SubmitML(context.Background(), MLRun{Isolation: MLOptions{Level: Asynchronous}}); err != ErrClosed {
		t.Fatalf("SubmitML after Close = %v, want ErrClosed", err)
	}
	if _, err := db.RunML(MLRun{Isolation: MLOptions{Level: Asynchronous}}); err != ErrClosed {
		t.Fatalf("RunML after Close = %v, want ErrClosed", err)
	}
	if err := db.Close(); err != nil {
		t.Fatal("Close not idempotent:", err)
	}
}

// TestDBCloseRacesSubmitAndCancel hammers the Close/SubmitML/Cancel
// triangle under the race detector: several goroutines submit and cancel
// jobs while two concurrent closers shut the database down. The invariant
// under test: the moment any Close returns, every accepted job's
// uber-transaction has finished its commit or abort — no publish is still
// in flight — and every table is in a terminal state (fully committed or
// untouched). Close used to return after draining the pool but before the
// handle goroutines published, and a second concurrent Close returned
// immediately without waiting for the first's drain.
func TestDBCloseRacesSubmitAndCancel(t *testing.T) {
	const submitters, jobsPer, rows = 4, 6, 4
	const target = 3.0
	db := Open(WithWorkers(4), WithRegions(2))

	tables := make([][]*Table, submitters)
	for s := range tables {
		tables[s] = make([]*Table, jobsPer)
		for j := range tables[s] {
			tables[s][j] = loadCounters(t, db, fmt.Sprintf("race-%d-%d", s, j), rows)
		}
	}

	var mu sync.Mutex
	var handles []*JobHandle
	var wg sync.WaitGroup
	start := make(chan struct{})
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			<-start
			for j := 0; j < jobsPer; j++ {
				tbl := tables[s][j]
				subs := make([]IterativeTransaction, rows)
				for i := range subs {
					subs[i] = &incSub{tbl: tbl, row: RowID(i), target: target}
				}
				h, err := db.SubmitML(context.Background(), MLRun{
					Isolation: MLOptions{Level: Asynchronous},
					BatchSize: 1,
					Attach:    []Attachment{{Table: tbl}},
					Subs:      subs,
				})
				if err != nil {
					if err != ErrClosed {
						t.Errorf("submitter %d job %d: %v", s, j, err)
					}
					return // database closed under us: expected
				}
				if j%2 == 1 {
					h.Cancel()
				}
				mu.Lock()
				handles = append(handles, h)
				mu.Unlock()
			}
		}(s)
	}
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			runtime.Gosched()
			if err := db.Close(); err != nil {
				t.Errorf("close: %v", err)
			}
		}()
	}
	close(start)
	wg.Wait()

	// Every handle here was accepted before Close marked the database
	// closed, so Close's return guarantees its commit/abort completed.
	mu.Lock()
	defer mu.Unlock()
	for i, h := range handles {
		select {
		case <-h.Done():
		default:
			t.Fatalf("handle %d still in flight after Close returned", i)
		}
	}
	for s := range tables {
		for j, tbl := range tables[s] {
			p, ok := db.Begin().Read(tbl, 0)
			if !ok {
				t.Fatalf("table %d-%d unreadable after Close", s, j)
			}
			if v := p.Float64(1); v != 0 && v != target {
				t.Fatalf("table %d-%d in non-terminal state %v (want 0 or %v)", s, j, v, target)
			}
		}
	}
}

// TestConcurrentJobsMatchSequentialStats: one pool, started once, runs an
// async PageRank job and a bounded-staleness SGD job back to back and then
// concurrently. Both modes must hold the same per-job invariants: every
// execution either committed or rolled back, SGD's fixed epoch budget
// commits exactly as many iterations as the sequential run with no forced
// stops, and every PageRank node committed at least once and at most once
// per iteration, so no job starved. Commit counts of two free-running
// async schedules are not compared.
func TestConcurrentJobsMatchSequentialStats(t *testing.T) {
	wikivote, err := graph.ByName("wikivote")
	if err != nil {
		t.Fatal(err)
	}
	g := wikivote.Generate(8)
	covtype, err := svm.SGDByName("covtype")
	if err != nil {
		t.Fatal(err)
	}
	train, _, features := covtype.Generate(512)
	const prIters, epochs = 5, 3

	pool, err := exec.NewPool(exec.Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	mgr := txn.NewManager()

	runPR := func() exec.Stats {
		node, edge, err := pagerank.LoadTables(mgr, g)
		if err != nil {
			t.Error(err)
			return exec.Stats{}
		}
		res, err := pagerank.Run(mgr, node, edge, pagerank.Config{
			Pool:      pool,
			Exec:      exec.JobConfig{MaxIterations: prIters},
			Isolation: isolation.Options{Level: isolation.Asynchronous},
		})
		if err != nil {
			t.Error(err)
			return exec.Stats{}
		}
		return res.Stats
	}
	runSGD := func() exec.Stats {
		tables, err := sgd.LoadTables(mgr, train, features, 1)
		if err != nil {
			t.Error(err)
			return exec.Stats{}
		}
		res, err := sgd.Run(mgr, tables, sgd.Config{
			Pool:      pool,
			Isolation: &isolation.Options{Level: isolation.BoundedStaleness, Staleness: 64},
			Epochs:    epochs, Lambda: covtype.Lambda, Seed: 1,
		})
		if err != nil {
			t.Error(err)
			return exec.Stats{}
		}
		return res.Stats
	}

	seqPR := runPR()
	seqSGD := runSGD()

	var conPR, conSGD exec.Stats
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); conPR = runPR() }()
	go func() { defer wg.Done(); conSGD = runSGD() }()
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	nodes := uint64(g.NumNodes())
	for _, c := range []struct {
		name string
		st   exec.Stats
	}{{"sequential pagerank", seqPR}, {"sequential sgd", seqSGD}, {"concurrent pagerank", conPR}, {"concurrent sgd", conSGD}} {
		if c.st.Executions != c.st.Commits+c.st.Rollbacks {
			t.Errorf("%s: executions %d != commits %d + rollbacks %d",
				c.name, c.st.Executions, c.st.Commits, c.st.Rollbacks)
		}
	}
	if conSGD.Commits != seqSGD.Commits {
		t.Errorf("sgd commits: concurrent %d != sequential %d", conSGD.Commits, seqSGD.Commits)
	}
	if seqSGD.ForcedStops != 0 || conSGD.ForcedStops != 0 {
		t.Errorf("sgd forced stops: seq %d con %d", seqSGD.ForcedStops, conSGD.ForcedStops)
	}
	for _, st := range []exec.Stats{seqPR, conPR} {
		if st.Commits < nodes || st.Commits > nodes*prIters {
			t.Errorf("pagerank commits %d outside [%d, %d]", st.Commits, nodes, nodes*prIters)
		}
	}
}
