package db4ml

import (
	"context"
	"fmt"
	"sync"

	"db4ml/internal/exec"
	"db4ml/internal/gc"
	"db4ml/internal/introspect"
	"db4ml/internal/numa"
	"db4ml/internal/obs"
	"db4ml/internal/partition"
	"db4ml/internal/plan"
	"db4ml/internal/shard"
	"db4ml/internal/table"
	"db4ml/internal/trace"
	"db4ml/internal/txn"
)

// This file is the sharded facade: OpenSharded builds N independent kernel
// instances (each with its own transaction manager, worker pool, stable
// watermark, and GC) sharing only the timestamp oracle, and runs every ML
// job as one uber-transaction with a part per shard (exec.StartUber) —
// begun and attached on every shard before any shard executes, committed
// with a two-phase protocol at one shared-oracle timestamp, aborted
// everywhere if any shard fails. See DESIGN.md §15 and internal/shard.
//
// The programming model is unchanged: tables are created and loaded the
// same way (CreateTable returns the global VIEW table, whose row ids are
// global and whose version chains are shared with the owning shards'
// locals), sub-transactions read and write through the view exactly as on
// a single kernel, and MLRun/QueryRun carry the same knobs. What sharding
// adds is placement: rows are routed to shards by the configured scheme,
// and sub-transaction i runs on the shard owning its rows (MLRun.ShardOf,
// defaulting to "sub i owns global row i of the first attached table" —
// the built-in algorithms' convention, so PageRank and SGD run unchanged).

// ShardedTable exposes a sharded table's placement surface: View, Local,
// ShardOf, Locate, LocalRows. CreateTable on a sharded database
// registers one and returns its View; retrieve the full object with
// ShardedDB.ShardedTable.
type ShardedTable = shard.Table

// Partitioning schemes for WithShardScheme (the same schemes that place
// rows across NUMA regions inside one kernel; see internal/partition).
const (
	ShardRange      = partition.Range
	ShardRoundRobin = partition.RoundRobin
	ShardHash       = partition.Hash
)

// WithShards sets the shard count for OpenSharded (default 2). Each shard
// is a full kernel instance with its own worker pool of WithWorkers
// workers — total worker count scales with the shard count.
func WithShards(n int) Option { return func(c *openConfig) { c.shards = n } }

// WithShardScheme sets the row-placement scheme for tables created on a
// sharded database (default ShardHash). ShardRange keeps contiguous row
// ranges per shard (best for range scans), ShardRoundRobin interleaves
// (best for load balance), ShardHash scatters.
func WithShardScheme(s partition.Scheme) Option {
	return func(c *openConfig) { c.shardScheme = s }
}

// ShardedDB is a shard-per-node database: N kernels behind the single-
// kernel programming model. ML jobs span every shard as one distributed
// uber-transaction; queries scatter across shards and gather; OLTP reads
// pin one snapshot per shard.
type ShardedDB struct {
	supervisor

	cluster *shard.Cluster
	scheme  partition.Scheme

	tblMu  sync.RWMutex
	tables map[string]*ShardedTable
	byView map[*Table]*ShardedTable

	// dur is the durability state (WAL, checkpoint cache, crash killer),
	// non-nil only under WithWAL; armed after recovery replay.
	dur *durability

	// One version reclaimer per shard, each clamped to its own kernel's
	// oldest active snapshot and pruning only the locals that shard owns.
	reclaimers []*gc.Reclaimer

	// Introspection state, non-nil only under WithDebugServer: the
	// coordinator tracer (the lifecycle spans of runs without their own
	// tracer: uber-begin, per-shard prepare, 2PC commit windows), one
	// engine tracer per shard, the per-shard aggregator behind the
	// cluster-wide /metrics and the /debug/shards breakdown, and the debug
	// server itself.
	coTracer     *trace.Tracer
	shardTracers []*trace.Tracer
	agg          *introspect.ShardedAggregator
	debug        *introspect.Server
}

// OpenSharded creates an empty sharded database and starts every shard's
// worker pool. All single-kernel options apply per shard (WithWorkers
// sizes each shard's pool, WithVersionGC runs one reclaimer per shard,
// supervision defaults cover distributed runs), and WithDebugServer serves
// the cluster-wide surface: merged /metrics and /debug/trace plus the
// per-shard /debug/shards breakdown.
func OpenSharded(opts ...Option) *ShardedDB {
	oc := openConfig{shardScheme: ShardHash}
	for _, o := range opts {
		o(&oc)
	}
	if oc.shards <= 0 {
		oc.shards = 2
	}
	cfg := exec.Config{Workers: oc.workers, Chaos: oc.chaos}
	if oc.regions > 0 {
		cfg.Topology = numa.NewTopology(oc.regions, cfg.Resolved().Workers)
	}
	cluster, err := shard.NewCluster(oc.shards, cfg)
	if err != nil {
		// Unreachable for the same reason Open's pool construction is: every
		// validated constraint is clamped before it gets here.
		panic("db4ml: " + err.Error())
	}
	db := &ShardedDB{
		supervisor: newSupervisor(&oc),
		cluster:    cluster,
		scheme:     oc.shardScheme,
		tables:     make(map[string]*ShardedTable),
		byView:     make(map[*Table]*ShardedTable),
	}
	db.reclaimers = make([]*gc.Reclaimer, oc.shards)
	for s := 0; s < oc.shards; s++ {
		s := s
		db.reclaimers[s] = gc.New(cluster.Kernel(s).Mgr(), func() []*table.Table {
			return db.tablesBy(func(st *ShardedTable) *Table { return st.Local(s) })
		})
		if oc.gcInterval > 0 {
			cluster.Kernel(s).Pool().Maintain(oc.gcInterval, func() { db.reclaimers[s].Pass() })
		}
	}
	if oc.debugAddr != "" {
		// Cluster-wide introspection: the 2PC lifecycle spans get their own
		// tracer, each shard's engine spans its own, and /debug/trace merges
		// them into one Chrome trace with a named process per source.
		workers := cfg.Resolved().Workers
		db.coTracer = trace.New(1, 0)
		db.shardTracers = make([]*trace.Tracer, oc.shards)
		for s := range db.shardTracers {
			db.shardTracers[s] = trace.New(workers, 0)
		}
		db.agg = introspect.NewShardedAggregator(oc.shards)
		srv, err := introspect.Start(introspect.Config{
			Addr:    oc.debugAddr,
			Metrics: db.agg.Snapshot,
			Jobs:    db.runs.jobs,
			Queries: db.runs.queryInfos,
			Shards:  db.shardInfos,
			Sources: db.traceSources,
		})
		if err != nil {
			cluster.Close()
			panic("db4ml: " + err.Error())
		}
		db.debug = srv
	}
	if oc.walDir != "" {
		// Durability telemetry is cluster-level; it lives on shard 0's
		// aggregator, like the 2PC telemetry's.
		dur, err := recoverKernel(db, oc, db.agg.Shard(0), db.coTracer)
		if err != nil {
			db.Close()
			panic("db4ml: recovery: " + err.Error())
		}
		db.dur = dur
	}
	return db
}

// DebugAddr returns the debug server's bound address (host:port), or ""
// when WithDebugServer was not used.
func (db *ShardedDB) DebugAddr() string {
	if db.debug == nil {
		return ""
	}
	return db.debug.Addr()
}

// traceSources lists the cluster's tracers for the merged /debug/trace
// export: the coordinator first, then every shard as its own named process.
func (db *ShardedDB) traceSources() []trace.Source {
	out := make([]trace.Source, 0, len(db.shardTracers)+1)
	out = append(out, trace.Source{Name: "coordinator", Tracer: db.coTracer})
	for s, t := range db.shardTracers {
		out = append(out, trace.Source{Name: fmt.Sprintf("shard%d", s), Tracer: t})
	}
	return out
}

// shardInfos assembles the /debug/shards table from the per-shard
// aggregators plus each kernel's live state.
func (db *ShardedDB) shardInfos() []introspect.ShardInfo {
	snaps := db.agg.ShardSnapshots()
	out := make([]introspect.ShardInfo, len(snaps))
	for s, snap := range snaps {
		out[s] = introspect.ShardInfo{
			Shard:       s,
			Workers:     db.cluster.Kernel(s).Pool().Workers(),
			TraceEvents: db.shardTracers[s].Len(),
			Stable:      uint64(db.cluster.Kernel(s).Mgr().Stable()),
			Counters:    snap.Cumulative,
		}
	}
	return out
}

// tablesBy snapshots one table per sharded table, chosen by pick: shard
// s's reclaimer takes the locals, the checkpointer the views.
func (db *ShardedDB) tablesBy(pick func(*ShardedTable) *Table) []*Table {
	db.tblMu.RLock()
	defer db.tblMu.RUnlock()
	out := make([]*Table, 0, len(db.tables))
	for _, st := range db.tables {
		out = append(out, pick(st))
	}
	return out
}

// tableList snapshots the view tables.
func (db *ShardedDB) tableList() []*Table { return db.tablesBy((*ShardedTable).View) }

// Shards returns the shard count.
func (db *ShardedDB) Shards() int { return db.cluster.Shards() }

// Cluster exposes the underlying shard cluster for advanced uses (the
// experiment harness reads per-shard managers directly).
func (db *ShardedDB) Cluster() *shard.Cluster { return db.cluster }

// Close drains in-flight distributed runs — including every
// uber-transaction's two-phase commit or abort — then stops all shards'
// worker pools. Further submissions fail with ErrClosed; reads keep
// working.
func (db *ShardedDB) Close() error {
	db.stopAdmitting()
	db.handles.Wait()
	db.cluster.Close()
	if db.dur != nil {
		_ = db.dur.log.Close()
	}
	if db.debug != nil {
		_ = db.debug.Close()
	}
	return nil
}

// CreateTable adds a new, empty sharded ML-table and returns its global
// view: row ids on the returned table are global, reads and scans resolve
// the owning shards' version chains directly, and sub-transactions written
// against it run unchanged. Placement follows the database's shard scheme
// (WithShardScheme).
func (db *ShardedDB) CreateTable(name string, cols ...Column) (*Table, error) {
	return db.createTable(name, cols, db.dur)
}

// createTable registers a new sharded table and returns its view, logging
// the creation through d (nil during recovery) before registering.
func (db *ShardedDB) createTable(name string, cols []Column, d *durability) (*Table, error) {
	schema, err := table.NewSchema(cols...)
	if err != nil {
		return nil, err
	}
	db.tblMu.Lock()
	defer db.tblMu.Unlock()
	if _, exists := db.tables[name]; exists {
		return nil, fmt.Errorf("db4ml: table %q already exists", name)
	}
	if err := d.appendCreate(name, cols); err != nil {
		return nil, err
	}
	st := shard.NewTable(name, schema, shard.NewRouter(db.scheme, db.cluster.Shards(), 0))
	db.tables[name] = st
	db.byView[st.View()] = st
	return st.View(), nil
}

// mutations sums a view's counter with its locals': commits bump the
// owning locals' counters (the uber-transaction attaches locals) while
// loads bump the view's, so the sum moves exactly when any of them does.
func (db *ShardedDB) mutations(view *Table) uint64 {
	muts := view.Mutations()
	if st, err := db.shardedOf(view); err == nil {
		for s := 0; s < db.cluster.Shards(); s++ {
			muts += st.Local(s).Mutations()
		}
	}
	return muts
}

// loadAt appends rows to a view's table in one all-shard publish at ts.
func (db *ShardedDB) loadAt(view *Table, ts Timestamp, rows []Payload) error {
	st, err := db.shardedOf(view)
	if err != nil {
		return err
	}
	return st.LoadAt(db.cluster, ts, rows)
}

// publishAt runs publish once inside one all-shard publish at ts: view
// chains are the shards' chains, so installing through them on shard 0
// covers every shard.
func (db *ShardedDB) publishAt(ts Timestamp, publish func(ts Timestamp)) {
	_ = db.cluster.PublishAllAt(ts, func(shard int, ts Timestamp) error {
		if shard == 0 {
			publish(ts)
		}
		return nil
	})
}

// managers lists every shard's transaction manager in shard order.
func (db *ShardedDB) managers() []*txn.Manager {
	out := make([]*txn.Manager, db.cluster.Shards())
	for s := range out {
		out[s] = db.cluster.Kernel(s).Mgr()
	}
	return out
}

// Table returns a table's global view by name, or nil.
func (db *ShardedDB) Table(name string) *Table {
	db.tblMu.RLock()
	defer db.tblMu.RUnlock()
	if st := db.tables[name]; st != nil {
		return st.View()
	}
	return nil
}

// ShardedTable returns the full sharded table (placement surface included)
// by name, or nil.
func (db *ShardedDB) ShardedTable(name string) *ShardedTable {
	db.tblMu.RLock()
	defer db.tblMu.RUnlock()
	return db.tables[name]
}

// shardedOf resolves a view table back to its sharded table.
func (db *ShardedDB) shardedOf(view *Table) (*ShardedTable, error) {
	db.tblMu.RLock()
	defer db.tblMu.RUnlock()
	if st := db.byView[view]; st != nil {
		return st, nil
	}
	name := "<nil>"
	if view != nil {
		name = view.Name()
	}
	return nil, fmt.Errorf("db4ml: table %q is not a table of this sharded database", name)
}

// BulkLoad appends rows in one globally atomic publish: rows are routed to
// their owning shards and published everywhere at one shared-oracle
// timestamp, so the load is either visible on every shard or on none.
func (db *ShardedDB) BulkLoad(tbl *Table, rows []Payload) error {
	st, err := db.shardedOf(tbl)
	if err != nil {
		return err
	}
	firstRow := st.NumRows()
	ts, err := st.Load(db.cluster, rows)
	if err != nil {
		return err
	}
	return db.dur.appendLoad(st.Name(), ts, firstRow, rows)
}

// Stable returns the newest timestamp at which EVERY shard is fully
// published — the cross-shard consistent snapshot bound. Individual shards
// may be ahead of it.
func (db *ShardedDB) Stable() Timestamp {
	var min Timestamp
	for s := 0; s < db.cluster.Shards(); s++ {
		ts := db.cluster.Kernel(s).Mgr().Stable()
		if s == 0 || ts < min {
			min = ts
		}
	}
	return min
}

// DistTxn is a read-only cross-shard transaction: one snapshot pinned per
// shard at Begin, each at that shard's own stable watermark. Reads route
// to the owning shard's snapshot, so a read never observes a version the
// owner's GC could reclaim and never observes a torn distributed commit
// mid-publish on the shard that owns the row. Cross-shard OLTP writes are
// not supported — writes go through single-shard transactions
// (Cluster().Kernel(i).Mgr().Begin()) or distributed ML runs.
type DistTxn struct {
	db  *ShardedDB
	txs []*txn.Txn
}

// Begin pins one read snapshot per shard.
func (db *ShardedDB) Begin() *DistTxn {
	d := &DistTxn{db: db, txs: make([]*txn.Txn, db.cluster.Shards())}
	for s := range d.txs {
		d.txs[s] = db.cluster.Kernel(s).Mgr().Begin()
	}
	return d
}

// Read returns global row's payload from its owning shard's pinned
// snapshot. tbl must be a view returned by CreateTable/Table.
func (d *DistTxn) Read(tbl *Table, row RowID) (Payload, bool) {
	st, err := d.db.shardedOf(tbl)
	if err != nil {
		return nil, false
	}
	s, local, ok := st.Locate(row)
	if !ok {
		return nil, false
	}
	return d.txs[s].Read(st.Local(s), local)
}

// BeginTS returns the snapshot timestamp pinned on the given shard.
func (d *DistTxn) BeginTS(shard int) Timestamp { return d.txs[shard].BeginTS() }

// Close releases every pinned snapshot.
func (d *DistTxn) Close() {
	for _, tx := range d.txs {
		tx.Abort()
	}
}

// PruneNow runs one version-GC pass on every shard synchronously — each
// clamped to its own kernel's oldest active snapshot — and returns the
// total number of versions reclaimed.
func (db *ShardedDB) PruneNow() int {
	total := 0
	for _, r := range db.reclaimers {
		total += r.Pass().Pruned
	}
	return total
}

// GCStats reports lifetime GC totals summed over every shard's reclaimer.
func (db *ShardedDB) GCStats() (passes, pruned uint64) {
	for _, r := range db.reclaimers {
		passes += r.Passes()
		pruned += r.TotalPruned()
	}
	return passes, pruned
}

// SubmitML starts one ML algorithm as a DISTRIBUTED uber-transaction and
// returns without waiting. Placement: sub-transaction i runs on shard
// MLRun.ShardOf(i) (default: the shard owning global row i of the first
// attached table). Every shard's part attaches its local rows of every
// attached table; all shards are begun and attached before any shard
// executes, so cross-shard reads through the view always find sibling
// shards' iterative records in place. On success the result publishes
// atomically on every shard at one timestamp; on any shard's failure the
// run aborts everywhere. Under the synchronous level the per-shard
// barriers are tied into one global rendezvous, so "reads see exactly the
// previous iteration" holds across shards too.
func (db *ShardedDB) SubmitML(ctx context.Context, run MLRun) (*JobHandle, error) {
	if err := db.admit(ctx, run.Observer); err != nil {
		return nil, err
	}
	set := db.settings(run)
	m, err := db.uberRun(run, set)
	if err != nil {
		db.release()
		return nil, err
	}
	return db.submitML(ctx, set, db.dur, m)
}

// uberRun lays run out across the cluster: every attachment resolved to
// its sharded table and split into per-shard locals, the sub-transactions
// grouped by placement, and one part per shard with its own job
// configuration and observer. The commit logs the attached views: their
// chains are the locals' chains, so after-images read identically.
func (db *ShardedDB) uberRun(run MLRun, set settings) (mlRun, error) {
	if len(run.Attach) == 0 {
		return mlRun{}, fmt.Errorf("db4ml: a sharded ML run must attach at least one table")
	}
	if run.Recorder != nil {
		// Every shard's pool numbers its sub-transactions from zero, so one
		// recorder shared by all shards would merge distinct subs.
		return mlRun{}, fmt.Errorf("db4ml: MLRun.Recorder is not supported on a sharded database")
	}
	n := db.cluster.Shards()

	// Every shard attaches (and votes in the two-phase commit) even when it
	// runs no sub-transactions.
	var primary *ShardedTable
	attach := make([][]Attachment, n)
	for ai, a := range run.Attach {
		st, err := db.shardedOf(a.Table)
		if err != nil {
			return mlRun{}, err
		}
		if ai == 0 {
			primary = st
		}
		locals, err := st.LocalRows(a.Rows)
		if err != nil {
			return mlRun{}, err
		}
		for s := 0; s < n; s++ {
			attach[s] = append(attach[s], Attachment{
				Table:    st.Local(s),
				Rows:     locals[s],
				Versions: a.Versions,
			})
		}
	}

	// Placement: group the sub-transactions by shard.
	shardOf := run.ShardOf
	if shardOf == nil {
		shardOf = func(i int) int { return primary.ShardOf(RowID(i)) }
	}
	subs := make([][]IterativeTransaction, n)
	for i, sub := range run.Subs {
		s := shardOf(i)
		if s < 0 || s >= n {
			return mlRun{}, fmt.Errorf("db4ml: sub-transaction %d routed to shard %d of %d (is the first attached table loaded?)", i, s, n)
		}
		subs[s] = append(subs[s], sub)
	}

	tracer := run.Tracer
	if tracer == nil {
		tracer = db.coTracer
	}
	m := mlRun{
		spec: exec.UberSpec{
			Isolation: run.Isolation,
			Parts:     make([]exec.UberPart, n),
			// The synchronous level's contract is global: no shard may enter
			// a round before every shard finished the previous one.
			GlobalBarrier: run.Isolation.Level == Synchronous,
			Crash:         db.dur.killer(),
			Tracer:        tracer,
		},
		aggs:    make([]*introspect.Aggregator, n),
		tables:  distinctTables(run.Attach),
		sharded: true,
	}
	for s := 0; s < n; s++ {
		cfg := set.jobConfig(run)
		if run.Label != "" {
			cfg.Label = fmt.Sprintf("%s@s%d", run.Label, s)
		}
		if cfg.Tracer == nil && db.shardTracers != nil {
			// Each shard's engine spans land on that shard's own ring, so
			// the merged /debug/trace shows them as separate processes.
			cfg.Tracer = db.shardTracers[s]
		}
		if s > 0 || cfg.Observer == nil {
			// Shard 0 reports to the caller's observer. Every other shard of
			// an instrumented run, and every shard of a run under the debug
			// server, gets its own, so /metrics and /debug/shards see it.
			cfg.Observer = nil
			if run.Observer != nil || db.agg != nil {
				cfg.Observer = obs.New()
			}
		}
		k := db.cluster.Kernel(s)
		m.spec.Parts[s] = exec.UberPart{
			Pool: k.Pool(), Mgr: k.Mgr(), Attach: attach[s], Build: subsOf(subs[s]), Job: cfg,
		}
		m.aggs[s] = db.agg.Shard(s)
	}
	return m, nil
}

// RunML executes one ML algorithm as a distributed uber-transaction and
// blocks until it finished, returning the shards' stats combined (see
// JobHandle.Wait).
func (db *ShardedDB) RunML(run MLRun) (ExecStats, error) {
	h, err := db.SubmitML(context.Background(), run)
	if err != nil {
		return ExecStats{}, err
	}
	return h.Wait()
}

// shardEnvs assembles one plan.Env per shard for a scattered query: each
// fragment pins its snapshot in its own shard's manager. One observer and
// tracer serve all fragments (counters accumulate across shards).
func (db *ShardedDB) shardEnvs(run QueryRun) []plan.Env {
	id := db.queryID.Add(1)
	envs := make([]plan.Env, db.cluster.Shards())
	for s := range envs {
		tracer := run.Tracer
		if tracer == nil && db.shardTracers != nil {
			tracer = db.shardTracers[s]
		}
		envs[s] = plan.Env{
			Mgr:    db.cluster.Kernel(s).Mgr(),
			Pool:   db.cluster.Kernel(s).Pool(),
			Obs:    run.Observer,
			Tracer: tracer,
			Job:    id,
		}
	}
	return envs
}

// rebindScan maps a scanned view table to a shard's local table for the
// scatter stage, or nil for tables this database does not shard.
func (db *ShardedDB) rebindScan(tbl *table.Table, s int) *table.Table {
	db.tblMu.RLock()
	defer db.tblMu.RUnlock()
	if st := db.byView[tbl]; st != nil {
		return st.Local(s)
	}
	return nil
}

// SubmitQuery starts one supervised distributed query and returns without
// waiting. The plan's scan/filter/project pipeline scatters — each shard's
// fragment runs at that shard's own pinned snapshot over only the rows it
// owns — and aggregates, sorts, and limits gather over the concatenated
// fragment results. Joins, iterate nodes, and RowRange predicates cannot
// run sharded and fail at submission, before admission. Supervision is the
// single-kernel path's: the same admission gate, default deadline, and
// retry policy. Per-operator stats are not reported for scattered queries
// (QueryHandle.Stats returns nil).
func (db *ShardedDB) SubmitQuery(ctx context.Context, run QueryRun) (*QueryHandle, error) {
	if err := plan.CheckScatter(run.Plan); err != nil {
		return nil, err
	}
	if err := db.admit(ctx, run.Observer); err != nil {
		return nil, err
	}
	envs := db.shardEnvs(run)
	// One observer serves every shard's fragment; it lives on shard 0's
	// aggregator (the fragments' counters are a cluster-wide account).
	agg := db.agg.Shard(0)
	if agg != nil && run.Observer == nil {
		qobs := obs.New()
		for i := range envs {
			envs[i].Obs = qobs
		}
	}
	agg.Attach(envs[0].Obs)
	h := &QueryHandle{}
	h.init(ctx)
	// Scattered execution has no single root cursor, so the handle carries
	// the planner's EXPLAIN tree instead of a measured ANALYZE one.
	if expl, err := plan.Explain(run.Plan, envs[0]); err == nil {
		h.explain = expl
	}
	db.superviseQuery(h, run, envs[0], agg, func(ctx context.Context) (err error) {
		h.result, err = plan.ScatterGather(ctx, run.Plan, envs, db.rebindScan)
		return err
	})
	return h, nil
}

// ExplainQuery prepares p with the same rewrite pipeline a scattered
// execution uses and returns the planner's annotated tree (EXPLAIN —
// pushdown and pre-sizing decisions, no execution).
func (db *ShardedDB) ExplainQuery(p *Plan) (*ExplainNode, error) {
	return plan.Explain(p, db.shardEnvs(QueryRun{})[0])
}

// RunQuery executes one distributed query and blocks until its
// materialized result is ready.
func (db *ShardedDB) RunQuery(ctx context.Context, run QueryRun) (*Relation, error) {
	h, err := db.SubmitQuery(ctx, run)
	if err != nil {
		return nil, err
	}
	return h.Wait()
}
