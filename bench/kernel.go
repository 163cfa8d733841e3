package main

import (
	"os"

	"db4ml"
	"db4ml/internal/exec"
	"db4ml/internal/isolation"
	"db4ml/internal/itx"
)

// kernel is the database a workload runs on — one kernel or a sharded
// cluster — behind the calls both facades share, so every ML workload can
// climb the shard rungs with the code it uses on a single kernel.
type kernel struct {
	db *db4ml.DB
	sh *db4ml.ShardedDB
}

// openKernel opens a single kernel (shards == 0) or a cluster.
func openKernel(shards int, opts ...db4ml.Option) kernel {
	if shards == 0 {
		return kernel{db: db4ml.Open(opts...)}
	}
	return kernel{sh: db4ml.OpenSharded(append(opts, db4ml.WithShards(shards))...)}
}

func (k kernel) CreateTable(name string, cols ...db4ml.Column) (*db4ml.Table, error) {
	if k.sh != nil {
		return k.sh.CreateTable(name, cols...)
	}
	return k.db.CreateTable(name, cols...)
}

func (k kernel) BulkLoad(tbl *db4ml.Table, rows []db4ml.Payload) error {
	if k.sh != nil {
		return k.sh.BulkLoad(tbl, rows)
	}
	return k.db.BulkLoad(tbl, rows)
}

func (k kernel) RunML(run db4ml.MLRun) error {
	if k.sh != nil {
		_, err := k.sh.RunML(run)
		return err
	}
	_, err := k.db.RunML(run)
	return err
}

func (k kernel) Stable() db4ml.Timestamp {
	if k.sh != nil {
		return k.sh.Stable()
	}
	return k.db.Stable()
}

// PruneNow drops the versions the previous ops superseded, so memory and
// chain length do not depend on how many ops a window fitted.
func (k kernel) PruneNow() {
	if k.sh != nil {
		k.sh.PruneNow()
		return
	}
	k.db.PruneNow()
}

func (k kernel) Close() {
	if k.sh != nil {
		_ = k.sh.Close() // nothing durable is at stake in a rung's throwaway cluster
		return
	}
	_ = k.db.Close() // durable workloads close their own DB and check the error
}

// mlTarget is one loaded copy of an ML workload's tables.
type mlTarget struct {
	k      kernel
	attach *db4ml.Table
	rows   []db4ml.RowID // the attached rows; nil attaches the whole table
	// build constructs one job's sub-transactions at snapshot ts (subs are
	// single-use: Begin caches record handles of one uber-transaction).
	build func(ts db4ml.Timestamp) ([]db4ml.IterativeTransaction, func(int) int, error)
	// read copies the committed result visible at ts into the workload's
	// result buffer — the read-back a user of the job would do.
	read func(ts db4ml.Timestamp) error
}

// mlSpec describes an ML workload's job: what every rung from the itx loop
// to the sharded facade needs in order to run it.
type mlSpec struct {
	iso      db4ml.MLOptions
	batch    int
	maxIter  uint64
	converge bool
	units    float64
	// load creates, fills and indexes the workload's tables in k.
	load func(k kernel) (*mlTarget, error)
}

// run is one op through the facade: build subs, RunML (gate, supervise,
// begin/attach, pool, commit, WAL/2PC when configured), read back.
func (s *mlSpec) run(t *mlTarget) error {
	subs, regionOf, err := t.build(t.k.Stable())
	if err != nil {
		return err
	}
	if err := t.k.RunML(s.mlRun(t, subs, regionOf)); err != nil {
		return err
	}
	return t.read(t.k.Stable())
}

// mlRun is the facade's description of one job on t.
func (s *mlSpec) mlRun(t *mlTarget, subs []db4ml.IterativeTransaction, regionOf func(int) int) db4ml.MLRun {
	if t.k.sh != nil {
		regionOf = nil // placement across shards follows row ownership
	}
	return db4ml.MLRun{
		Isolation: s.iso, BatchSize: s.batch, MaxIterations: s.maxIter, ConvergeTogether: s.converge,
		Attach: []db4ml.Attachment{{Table: t.attach, Rows: t.rows}}, Subs: subs, RegionOf: regionOf,
	}
}

// walOption returns the options of a rung's database: none, or — with wal
// set — WithWAL over a fresh directory under tmp, which cleanup removes.
func walOption(tmp string, wal bool) (opts []db4ml.Option, cleanup func(), err error) {
	if !wal {
		return nil, func() {}, nil
	}
	dir, err := os.MkdirTemp(tmp, "rung-wal-")
	if err != nil {
		return nil, nil, err
	}
	return []db4ml.Option{db4ml.WithWAL(dir)}, func() { os.RemoveAll(dir) }, nil
}

// runByHand is the same op driven through the itx and exec layers' public
// functions directly — what DB.RunML does minus its gate and supervision —
// with a span around each call. pool == nil drives the sub-transactions
// from this goroutine with no queue at all (the itx rung).
func (s *mlSpec) runByHand(t *mlTarget, pool *exec.Pool, tr *tracer) error {
	root := tr.begin("op")
	defer tr.end(root)

	sp := tr.begin("itx.BeginUber+Attach")
	u, err := itx.BeginUber(t.k.db.Manager(), s.iso)
	if err == nil {
		if err = u.Attach(t.attach, t.rows, u.DefaultVersions()); err != nil {
			_ = u.Abort() // the attach error is the one to report
		}
	}
	tr.end(sp)
	if err != nil {
		return err
	}

	sp = tr.begin("BuildSubs")
	subs, regionOf, err := t.build(u.Snapshot())
	tr.end(sp)
	if err != nil {
		_ = u.Abort()
		return err
	}

	if pool == nil {
		sp = tr.begin("itx.Begin/Execute/Validate/Finalize")
		s.drive(subs)
		tr.end(sp)
	} else {
		sp = tr.begin("exec.Submit->Wait")
		var job *exec.Job
		job, err = pool.Submit(subs, s.iso, exec.JobConfig{
			BatchSize: s.batch, MaxIterations: s.maxIter, ConvergeTogether: s.converge, RegionOf: regionOf,
		})
		if err == nil {
			_, err = job.Wait()
		}
		tr.end(sp)
		if err != nil {
			_ = u.Abort()
			return err
		}
	}

	sp = tr.begin("Uber.Commit")
	ts, err := u.Commit()
	tr.end(sp)
	if err != nil {
		return err
	}

	sp = tr.begin("read-back")
	err = t.read(ts)
	tr.end(sp)
	return err
}

// runFacadeTraced is the op through the facade with the coarser spans the
// facade's public surface allows (used where the by-hand path cannot reach:
// WAL appends and the shard coordinator are not callable from outside).
func (s *mlSpec) runFacadeTraced(t *mlTarget, tr *tracer) error {
	root := tr.begin("op")
	defer tr.end(root)

	sp := tr.begin("BuildSubs")
	subs, regionOf, err := t.build(t.k.Stable())
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.begin("RunML")
	err = t.k.RunML(s.mlRun(t, subs, regionOf))
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.begin("read-back")
	err = t.read(t.k.Stable())
	tr.end(sp)
	return err
}

// drive runs subs to retirement from the calling goroutine using only the
// itx layer: per-sub Ctx, Begin/Execute/Validate and Ctx.Finalize, in the
// order the pool would call them (synchronous: execute every live sub with
// writes buffered, then finalize every one; otherwise one sub at a time)
// but with no queue, batch, guard or barrier.
func (s *mlSpec) drive(subs []itx.Sub) {
	type sched struct {
		sub    itx.Sub
		ctx    *itx.Ctx
		action itx.Action
		done   bool
	}
	ss := make([]sched, len(subs))
	for i, sub := range subs {
		ss[i] = sched{sub: sub, ctx: itx.NewCtx(s.iso, 0)}
		ss[i].ctx.SetSub(i)
		sub.Begin(ss[i].ctx)
	}
	capped := func(c *itx.Ctx) bool { return s.maxIter > 0 && c.Iteration() >= s.maxIter }
	live := len(ss)
	for live > 0 {
		if s.iso.Level == isolation.Synchronous {
			votes := 0
			for i := range ss {
				if e := &ss[i]; !e.done {
					e.sub.Execute(e.ctx)
					if e.action = e.sub.Validate(e.ctx); e.action == itx.Done {
						votes++
					}
				}
			}
			unanimous := votes == live
			for i := range ss {
				e := &ss[i]
				if e.done {
					continue
				}
				a := e.action
				if s.converge && a == itx.Done && !unanimous {
					a = itx.Commit
				}
				if conv, _ := e.ctx.Finalize(a); conv || capped(e.ctx) {
					e.done = true
					live--
				}
			}
			continue
		}
		for i := range ss {
			e := &ss[i]
			if e.done {
				continue
			}
			e.sub.Execute(e.ctx)
			if conv, _ := e.ctx.Finalize(e.sub.Validate(e.ctx)); conv || capped(e.ctx) {
				e.done = true
				live--
			}
		}
	}
}

// rungs builds the ML ladder. raw and storage are the workload's own
// loops; every rung above them is shared, because from the itx loop up the
// layers do not care which algorithm the sub-transactions implement.
func (s *mlSpec) rungs(raw, storage func() error, tmp string) []rung {
	byHand := func(workers int) prepFunc {
		return func() (func() error, func(), error) {
			t, err := s.load(openKernel(0, db4ml.WithWorkers(1)))
			if err != nil {
				return nil, nil, err
			}
			var pool *exec.Pool
			if workers > 0 {
				if pool, err = exec.NewPool(exec.Config{Workers: workers}); err != nil {
					t.k.Close()
					return nil, nil, err
				}
			}
			return func() error { return s.runByHand(t, pool, nil) }, func() {
				if pool != nil {
					pool.Close()
				}
				t.k.Close()
			}, nil
		}
	}
	facade := func(shards, workers int, wal bool) prepFunc {
		return func() (func() error, func(), error) {
			opts, cleanup, err := walOption(tmp, wal)
			if err != nil {
				return nil, nil, err
			}
			t, err := s.load(openKernel(shards, append(opts, db4ml.WithWorkers(workers))...))
			if err != nil {
				cleanup()
				return nil, nil, err
			}
			return func() error { return s.run(t) }, func() {
				t.k.Close()
				cleanup()
			}, nil
		}
	}
	return []rung{
		{"raw", plainRung(raw)},
		{"storage", plainRung(storage)},
		{"kernel", byHand(0)},
		{"exec1", byHand(1)},
		{"exec2", byHand(2)},
		{"db4ml", facade(0, 2, false)},
		{"wal", facade(0, 2, true)},
		// Same two busy goroutines in every configuration: 1 shard x 2
		// workers against Open's 2 workers, then 2 shards x 1 worker.
		{"shard1", facade(1, 2, false)},
		{"shard2", facade(2, 1, false)},
	}
}
