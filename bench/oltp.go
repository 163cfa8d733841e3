package main

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"sync/atomic"
	"time"

	"db4ml"
	"db4ml/internal/storage"
	"db4ml/internal/txn"
)

const (
	oltpInitial  = 1000.0 // starting balance of every checking and savings row
	oltpDeposit  = 40     // % deposits; then 30 % transfers; the rest balance checks
	oltpTransfer = 30
	spinIters    = 4 // iterations per concurrent ML job: ~5 ms, one uber-commit each
)

// spinSub is the concurrent ML job's sub-transaction: it bumps its row once
// per iteration (the job's MaxIterations retires it). It keeps no state
// across jobs but its handle, which Begin refreshes, so the same subs are
// resubmitted job after job.
type spinSub struct {
	tbl *db4ml.Table
	row db4ml.RowID
	rec *storage.IterativeRecord
	buf db4ml.Payload
}

func (s *spinSub) Begin(*db4ml.Ctx) {
	s.rec = s.tbl.IterRecord(s.row)
	if s.buf == nil {
		s.buf = make(db4ml.Payload, 2)
	}
}

func (s *spinSub) Execute(ctx *db4ml.Ctx) {
	ctx.Read(s.rec, s.buf)
	s.buf.SetFloat64(1, s.buf.Float64(1)+1)
	ctx.Write(s.rec, s.buf)
}

func (s *spinSub) Validate(*db4ml.Ctx) db4ml.Action { return db4ml.Commit }

// txKind draws the next SmallBank transaction from rng.
func txKind(rng *rand.Rand, accounts int) (kind, acct int, amount float64) {
	return rng.Intn(100), rng.Intn(accounts), float64(rng.Intn(100) + 1)
}

// bank is SmallBank's two tables plus the begin function of whichever layer
// runs the transactions (txn.Manager directly, or the facade).
type bank struct {
	checking, savings *db4ml.Table
	begin             func(acct int) *db4ml.Txn
	// local maps an account to its row in checking/savings; identity except
	// on a cluster, where the tables are the owning shard's locals.
	local func(acct int) (checking, savings *db4ml.Table, row db4ml.RowID)
}

// one runs one SmallBank transaction to commit, retrying on write-write
// conflicts, and returns the amount it deposited into the bank.
func (b *bank) one(kind, acct int, amount float64, tr *tracer, conflicts *int) (float64, error) {
	checking, savings, row := b.checking, b.savings, db4ml.RowID(acct)
	if b.local != nil {
		checking, savings, row = b.local(acct)
	}
	for {
		sp := tr.begin("Begin")
		tx := b.begin(acct)
		tr.end(sp)
		sp = tr.begin("Read")
		c, ok := tx.Read(checking, row)
		var s db4ml.Payload
		if ok && kind >= oltpDeposit {
			s, ok = tx.Read(savings, row)
		}
		tr.end(sp)
		if !ok {
			tx.Abort()
			return 0, fmt.Errorf("account %d missing", acct)
		}
		deposited := 0.0
		var err error
		sp = tr.begin("Write")
		switch {
		case kind < oltpDeposit:
			c.SetFloat64(1, c.Float64(1)+amount)
			err = tx.Write(checking, row, c)
			deposited = amount
		case kind < oltpDeposit+oltpTransfer:
			c.SetFloat64(1, c.Float64(1)-amount)
			s.SetFloat64(1, s.Float64(1)+amount)
			if err = tx.Write(checking, row, c); err == nil {
				err = tx.Write(savings, row, s)
			}
		}
		tr.end(sp)
		if err != nil {
			tx.Abort()
			return 0, err
		}
		sp = tr.begin("Commit")
		err = tx.Commit()
		tr.end(sp)
		if err == nil {
			return deposited, nil
		}
		if !errors.Is(err, txn.ErrConflict) {
			return 0, err
		}
		*conflicts++
	}
}

// loadBank creates and fills Checking and Savings in k.
func loadBank(k kernel, accounts int) (checking, savings *db4ml.Table, err error) {
	cols := []db4ml.Column{{Name: "ID", Type: db4ml.Int64}, {Name: "Balance", Type: db4ml.Float64}}
	rows := make([]db4ml.Payload, accounts)
	for i := range rows {
		r := make(db4ml.Payload, 2)
		r.SetInt64(0, int64(i))
		r.SetFloat64(1, oltpInitial)
		rows[i] = r
	}
	if checking, err = k.CreateTable("Checking", cols...); err != nil {
		return nil, nil, err
	}
	if savings, err = k.CreateTable("Savings", cols...); err != nil {
		return nil, nil, err
	}
	if err = k.BulkLoad(checking, rows); err != nil {
		return nil, nil, err
	}
	return checking, savings, k.BulkLoad(savings, rows)
}

// oltpInst is oltp_ml_mix: one closed-loop SmallBank client beside one
// 1-worker asynchronous ML job and the background version GC.
type oltpInst struct {
	accounts, mlRows int
	nBurst           int
	seed             int64
	tmp              string

	db   *db4ml.DB
	bank bank
	rng  *rand.Rand

	// The concurrent ML side: a goroutine resubmitting one short job. The
	// client parks it between jobs (pause, then resume) to measure the
	// same transactions without it.
	stop          atomic.Bool
	pause, resume chan struct{}
	mlDone        chan error
	mlJobs        int // jobs committed; written by the ML goroutine, read once it is parked or done
	mlT           *db4ml.Table

	deposits  float64
	attempts  int
	conflicts int
	alone     []float64 // the baseline's per-transaction times

}

func oltpWorkload(name string) workload {
	return workload{name: name, unit: "transaction", setup: func(seed int64, sz sizes, tmp string) (instance, error) {
		o := &oltpInst{accounts: sz.accounts, mlRows: sz.mlRows, nBurst: sz.oltpBurst, seed: seed, tmp: tmp, rng: rand.New(rand.NewSource(seed))}
		o.db = db4ml.Open(db4ml.WithWorkers(1), db4ml.WithVersionGC(10*time.Millisecond))
		var err error
		if o.bank, err = facadeBank(o.db, o.accounts); err != nil {
			o.db.Close()
			return nil, err
		}
		if err := o.startML(); err != nil {
			o.db.Close()
			return nil, err
		}
		for i := 0; i < 512; i++ { // warm-up
			if err := o.op(); err != nil {
				o.close()
				return nil, err
			}
		}
		return o, nil
	}}
}

// facadeBank loads a bank into db and runs its transactions through
// DB.Begin.
func facadeBank(db *db4ml.DB, accounts int) (bank, error) {
	checking, savings, err := loadBank(kernel{db: db}, accounts)
	return bank{checking: checking, savings: savings, begin: func(int) *db4ml.Txn { return db.Begin() }}, err
}

// startML starts the concurrent ML side: one asynchronous spinIters-
// iteration job over the whole Spin table, resubmitted back to back. A
// single job spinning for the whole window would pin its begin snapshot
// and hold the version GC's watermark there, so memory would grow with the
// number of transactions the window fitted; resubmitting releases the pin
// every few milliseconds and adds uber-commits beside the OLTP commits.
func (o *oltpInst) startML() error {
	var err error
	if o.mlT, err = o.db.CreateTable("Spin",
		db4ml.Column{Name: "ID", Type: db4ml.Int64}, db4ml.Column{Name: "N", Type: db4ml.Float64}); err != nil {
		return err
	}
	rows := make([]db4ml.Payload, o.mlRows)
	subs := make([]db4ml.IterativeTransaction, o.mlRows)
	for i := range rows {
		rows[i] = db4ml.Payload{uint64(i), 0}
		subs[i] = &spinSub{tbl: o.mlT, row: db4ml.RowID(i)}
	}
	if err := o.db.BulkLoad(o.mlT, rows); err != nil {
		return err
	}
	run := db4ml.MLRun{
		Isolation: db4ml.MLOptions{Level: db4ml.Asynchronous}, MaxIterations: spinIters,
		Attach: []db4ml.Attachment{{Table: o.mlT}}, Subs: subs,
	}
	o.mlDone = make(chan error, 1)
	o.pause, o.resume = make(chan struct{}), make(chan struct{})
	go func() {
		for !o.stop.Load() {
			select {
			case <-o.pause: // parked between two jobs until the client resumes us
				<-o.resume
				continue
			default:
			}
			if _, err := o.db.RunML(run); err != nil {
				o.mlDone <- err
				return
			}
			o.mlJobs++
		}
		o.mlDone <- nil
	}()
	return nil
}

// stopML stops the ML side and checks that every job it ran is committed
// and visible: each adds spinIters to every row.
func (o *oltpInst) stopML() error {
	if o.mlDone == nil {
		return nil
	}
	o.stop.Store(true)
	err := <-o.mlDone
	o.mlDone = nil
	if err != nil {
		return fmt.Errorf("concurrent ML job: %w", err)
	}
	if o.mlJobs < 1 {
		return fmt.Errorf("the concurrent ML side committed no job during the window")
	}
	for _, row := range []db4ml.RowID{0, db4ml.RowID(o.mlRows - 1)} {
		r, ok := o.mlT.Read(row, o.db.Stable())
		if want := float64(spinIters * o.mlJobs); !ok || r.Float64(1) != want {
			return fmt.Errorf("Spin row %d reads %v after %d committed jobs, want %g", row, r, o.mlJobs, want)
		}
	}
	return nil
}

func (o *oltpInst) unitsPerOp() float64 { return 1 }
func (o *oltpInst) burst() int          { return o.nBurst }
func (o *oltpInst) baselineReps() int   { return 1 }
func (o *oltpInst) native() string      { return "db4ml" }

func (o *oltpInst) op() error { return o.traced(nil) }

func (o *oltpInst) traced(tr *tracer) error {
	kind, acct, amount := txKind(o.rng, o.accounts)
	root := tr.begin("op")
	d, err := o.bank.one(kind, acct, amount, tr, &o.conflicts)
	tr.end(root)
	o.attempts++
	o.deposits += d
	return err
}

// rawOne is one transaction of the mix on two plain slices (the raw rung).
func rawOne(rng *rand.Rand, check, savings []float64) {
	kind, acct, amount := txKind(rng, len(check))
	switch {
	case kind < oltpDeposit:
		check[acct] += amount
	case kind < oltpDeposit+oltpTransfer:
		check[acct] -= amount
		savings[acct] += amount
	default:
		sink += uint64(check[acct] + savings[acct])
	}
}

// baseline is the same client issuing the same mix on the same database
// with the ML side parked: overhead_x on this workload is what coexisting
// with the ML job costs a transaction (the paper's section 2.1 claim as a
// ratio). Both sides are the same code on the same memory, so the ratio
// holds still when the host's memory system does not. What the transaction
// machinery costs over plain slices is the ladder's business (raw rung).
func (o *oltpInst) baseline() (time.Duration, error) {
	select {
	case o.pause <- struct{}{}:
		defer func() { o.resume <- struct{}{} }()
	case err := <-o.mlDone:
		o.mlDone <- err // the ML side died; finish reports why
	}
	if o.alone == nil {
		o.alone = make([]float64, o.nBurst)
	}
	for i := range o.alone {
		t0 := time.Now()
		if err := o.op(); err != nil {
			return 0, err
		}
		o.alone[i] = float64(time.Since(t0))
	}
	sort.Float64s(o.alone)
	return time.Duration(median(o.alone)), nil
}

func (o *oltpInst) verify() error { return nil }

// quiesce stops the ML side and runs one GC pass before memory is read:
// what remains is the tables and the versions the watermark still holds,
// not whichever phase the concurrent job happened to be in.
func (o *oltpInst) quiesce() error {
	err := o.stopML()
	o.db.PruneNow()
	return err
}

// finish stops the ML job and checks SmallBank's conservation invariant:
// transfers move money, only deposits add it.
func (o *oltpInst) finish() error {
	if err := o.stopML(); err != nil {
		return err
	}
	total := 0.0
	tx := o.db.Begin()
	defer tx.Abort()
	for i := 0; i < o.accounts; i++ {
		c, ok1 := tx.Read(o.bank.checking, db4ml.RowID(i))
		s, ok2 := tx.Read(o.bank.savings, db4ml.RowID(i))
		if !ok1 || !ok2 {
			return fmt.Errorf("account %d unreadable", i)
		}
		total += c.Float64(1) + s.Float64(1)
	}
	if want := 2*oltpInitial*float64(o.accounts) + o.deposits; total != want {
		return fmt.Errorf("total balance %.0f, want initial + deposits = %.0f", total, want)
	}
	if passes, _ := o.db.GCStats(); passes < 3 {
		return fmt.Errorf("version GC completed only %d passes during the window", passes)
	}
	return nil
}

func (o *oltpInst) close() {
	_ = o.stopML() // already checked by finish when the run got that far
	o.db.Close()
}

// burstOf returns a rung op running one burst of the mix through b with a
// fresh deterministic stream.
func burstOf(b bank, accounts, n int, seed int64) func() error {
	rng := rand.New(rand.NewSource(seed))
	conflicts := 0
	return func() error {
		for i := 0; i < n; i++ {
			kind, acct, amount := txKind(rng, accounts)
			if _, err := b.one(kind, acct, amount, nil, &conflicts); err != nil {
				return err
			}
		}
		return nil
	}
}

// rungs runs the mix with no ML job beside it, one layer at a time.
func (o *oltpInst) rungs() []rung {
	onDB := func(wal bool, mk func(db *db4ml.DB, b bank) bank) prepFunc {
		return func() (func() error, func(), error) {
			opts, cleanup, err := walOption(o.tmp, wal)
			if err != nil {
				return nil, nil, err
			}
			db := db4ml.Open(append(opts, db4ml.WithWorkers(1), db4ml.WithVersionGC(10*time.Millisecond))...)
			b, err := facadeBank(db, o.accounts)
			if err != nil {
				db.Close()
				cleanup()
				return nil, nil, err
			}
			return burstOf(mk(db, b), o.accounts, o.nBurst, o.seed), func() {
				db.Close()
				cleanup()
			}, nil
		}
	}
	same := func(_ *db4ml.DB, b bank) bank { return b }
	onCluster := func(shards int) prepFunc {
		return func() (func() error, func(), error) {
			sh := db4ml.OpenSharded(db4ml.WithShards(shards), db4ml.WithWorkers(1), db4ml.WithVersionGC(10*time.Millisecond))
			if _, _, err := loadBank(kernel{sh: sh}, o.accounts); err != nil {
				sh.Close()
				return nil, nil, err
			}
			ct, st := sh.ShardedTable("Checking"), sh.ShardedTable("Savings")
			// Writes on a cluster are single-shard transactions on the
			// owning kernel's manager; an account's two rows hash to the
			// same shard.
			b := bank{
				begin: func(acct int) *db4ml.Txn { return sh.Cluster().Kernel(ct.ShardOf(db4ml.RowID(acct))).Mgr().Begin() },
				local: func(acct int) (*db4ml.Table, *db4ml.Table, db4ml.RowID) {
					s, row, _ := ct.Locate(db4ml.RowID(acct))
					return ct.Local(s), st.Local(s), row
				},
			}
			return burstOf(b, o.accounts, o.nBurst, o.seed), func() { sh.Close() }, nil
		}
	}
	return []rung{
		{"raw", func() (func() error, func(), error) {
			rng := rand.New(rand.NewSource(o.seed))
			check, savings := make([]float64, o.accounts), make([]float64, o.accounts)
			return func() error {
				for i := 0; i < o.nBurst; i++ {
					rawOne(rng, check, savings)
				}
				return nil
			}, func() {}, nil
		}},
		{"storage", o.storageRung},
		// kernel: txn.Manager driven directly.
		{"kernel", onDB(false, func(db *db4ml.DB, b bank) bank {
			mgr := db.Manager()
			b.begin = func(int) *db4ml.Txn { return mgr.Begin() }
			return b
		})},
		// exec: OLTP transactions never enter the worker pool.
		{"db4ml", onDB(false, same)},
		{"wal", onDB(true, same)},
		{"shard1", onCluster(1)},
		{"shard2", onCluster(2)},
	}
}

// storageRung runs the mix against bare version chains: visibility reads
// and CAS installs of new versions stamped from a private oracle — the
// storage layer's share of a commit, with no snapshot registry, write set,
// conflict check or commit lock.
func (o *oltpInst) storageRung() (func() error, func(), error) {
	db := db4ml.Open(db4ml.WithWorkers(1))
	b, err := facadeBank(db, o.accounts)
	if err != nil {
		db.Close()
		return nil, nil, err
	}
	var oracle storage.Oracle
	oracle.AdvanceTo(db.Stable())
	rng := rand.New(rand.NewSource(o.seed))
	write := func(tbl *db4ml.Table, acct int, delta float64) error {
		chain := tbl.Chain(db4ml.RowID(acct))
		head := chain.Head()
		p := head.Payload.Clone()
		p.SetFloat64(1, p.Float64(1)+delta)
		rec := storage.NewRecord(0, p)
		rec.SetBegin(storage.InfTS)
		if !chain.Install(head, rec) {
			return fmt.Errorf("account %d: version install lost a race with nobody", acct)
		}
		rec.Publish(oracle.Next())
		return nil
	}
	op := func() error {
		for i := 0; i < o.nBurst; i++ {
			kind, acct, amount := txKind(rng, o.accounts)
			var err error
			switch {
			case kind < oltpDeposit:
				err = write(b.checking, acct, amount)
			case kind < oltpDeposit+oltpTransfer:
				if err = write(b.checking, acct, -amount); err == nil {
					err = write(b.savings, acct, amount)
				}
			default:
				ts := oracle.Current()
				c, ok1 := b.checking.Read(db4ml.RowID(acct), ts)
				s, ok2 := b.savings.Read(db4ml.RowID(acct), ts)
				if !ok1 || !ok2 {
					err = fmt.Errorf("account %d unreadable", acct)
				}
				sink += uint64(len(c) + len(s))
			}
			if err != nil {
				return err
			}
		}
		return nil
	}
	return op, func() { db.Close() }, nil
}

// detail measures what the ML job costs its OLTP neighbour, and reports
// the GC and conflict counts of the traced window.
func (o *oltpInst) detail(w io.Writer) error {
	p50 := func() float64 {
		ds := make([]float64, 0, 4*o.nBurst)
		for i := 0; i < cap(ds); i++ {
			t0 := time.Now()
			if err := o.op(); err != nil {
				return 0
			}
			ds = append(ds, float64(time.Since(t0)))
		}
		sort.Float64s(ds)
		return median(ds)
	}
	with := p50()
	if err := o.stopML(); err != nil {
		return err
	}
	alone := p50()
	if with == 0 || alone == 0 {
		return fmt.Errorf("a transaction failed while measuring interference")
	}
	passes, pruned := o.db.GCStats()
	fmt.Fprintf(w, "  OLTP lat_p50 alone %.1f ns, beside the ML job %.1f ns: interference_x %.3f\n", alone, with, with/alone)
	fmt.Fprintf(w, "  version GC: %d passes, %d versions pruned; conflicts retried / attempts: %d / %d\n",
		passes, pruned, o.conflicts, o.attempts)
	return nil
}
