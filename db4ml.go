// Package db4ml is the public API of this DB4ML reproduction: an in-memory
// database kernel with machine-learning support (Jasny et al., SIGMOD
// 2020). It exposes the paper's programming model — ML-tables queried and
// updated by classical transactions, plus user-defined ML algorithms
// written as iterative transactions and executed by a parallel engine
// under ML-specific isolation levels (synchronous, asynchronous,
// bounded staleness).
//
// A minimal session:
//
//	db := db4ml.Open()
//	nodes, _ := db.CreateTable("Node",
//		db4ml.Column{Name: "NodeID", Type: db4ml.Int64},
//		db4ml.Column{Name: "PR", Type: db4ml.Float64})
//	... bulk load, then run an ML algorithm:
//	stats, _ := db.RunML(db4ml.MLRun{
//		Isolation: db4ml.MLOptions{Level: db4ml.Asynchronous},
//		Attach:    []db4ml.Attachment{{Table: nodes}},
//		Subs:      mySubTransactions,
//	})
//
// See examples/ for complete programs and DESIGN.md for the architecture.
package db4ml

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"db4ml/internal/chaos"
	"db4ml/internal/exec"
	"db4ml/internal/gc"
	"db4ml/internal/introspect"
	"db4ml/internal/isolation"
	"db4ml/internal/itx"
	"db4ml/internal/numa"
	"db4ml/internal/obs"
	"db4ml/internal/partition"
	"db4ml/internal/resilience"
	"db4ml/internal/shard"
	"db4ml/internal/storage"
	"db4ml/internal/table"
	"db4ml/internal/trace"
	"db4ml/internal/txn"
	"db4ml/internal/wal"
)

// Re-exported building blocks. These are aliases, so values flow freely
// between the facade and the internal packages.
type (
	// Table is an ML-table: an MVCC-versioned, partitionable in-memory
	// table usable by both OLTP transactions and ML algorithms.
	Table = table.Table
	// Column declares one table column.
	Column = table.Column
	// RowID identifies a row within a table.
	RowID = table.RowID
	// Payload is a row image; see Schema.NewPayload.
	Payload = storage.Payload
	// Timestamp is a logical commit timestamp.
	Timestamp = storage.Timestamp
	// Txn is a snapshot-isolation OLTP transaction.
	Txn = txn.Txn
	// IterativeTransaction is the paper's Listing-1 interface: Begin
	// caches tx_state, Execute runs one iteration, Validate returns
	// Commit, Rollback, or Done.
	IterativeTransaction = itx.Sub
	// Ctx mediates an iterative transaction's reads and writes under the
	// chosen ML isolation level.
	Ctx = itx.Ctx
	// Action is an iterative transaction's validate verdict.
	Action = itx.Action
	// MLOptions selects the ML isolation level for one uber-transaction.
	MLOptions = isolation.Options
	// ExecStats reports what one ML run did.
	ExecStats = exec.Stats
	// Topology is the simulated NUMA layout used for worker pinning and
	// data partitioning.
	Topology = numa.Topology
	// Observer collects engine telemetry for one ML run: per-worker
	// counters, queue/liveness gauges, and a convergence time series. See
	// NewObserver and MLRun.Observer.
	Observer = obs.Observer
	// TelemetrySnapshot is an Observer's exportable state.
	TelemetrySnapshot = obs.Snapshot
	// Tracer records an ML run's scheduling timeline (batch passes, queue
	// waits, barrier skew, steals, faults, retries, commits) into fixed-size
	// per-worker ring buffers, exportable as Chrome trace_event JSON. See
	// NewTracer and MLRun.Tracer; WithDebugServer creates a shared one
	// automatically.
	Tracer = trace.Tracer
	// FaultInjector perturbs engine scheduling at the chaos injection
	// points — deterministic, seed-replayable fault injection for tests and
	// experiments (see internal/chaos and chaos.NewSeeded). Production runs
	// leave it nil.
	FaultInjector = chaos.Injector
	// RetryPolicy governs whole-job abort-retry on SubmitML/RunML: failed
	// attempts whose uber-transaction aborted (so no state is visible) are
	// resubmitted with deterministic exponential backoff. See WithRetry and
	// MLRun.Retry.
	RetryPolicy = resilience.RetryPolicy
)

// RunRecorder receives one ML run's isolation-relevant history: every
// mediated read, validation, install, and barrier flip (exec.Recorder), plus
// the uber-transaction's final commit (RecordUberCommit, with the timestamp
// its result became visible at) or abort (RecordUberAbort). internal/check
// implements it to validate the paper's isolation contracts post-hoc; nil
// disables recording at zero cost. Implementations are called concurrently.
type RunRecorder = exec.RunRecorder

// NewObserver creates a telemetry observer to pass in MLRun.Observer. One
// observer serves one run at a time; rerunning resets it.
func NewObserver() *Observer { return obs.New() }

// NewTracer creates a span tracer to pass in MLRun.Tracer: one ring of the
// given capacity (0 = a sensible default) per worker. Size workers to the
// database's pool; out-of-range worker indexes fold into the first ring, so
// oversizing is never needed. One tracer may be shared by concurrent runs —
// events carry the owning job's id.
func NewTracer(workers, capacity int) *Tracer { return trace.New(workers, capacity) }

// Column types.
const (
	Int64   = table.Int64
	Float64 = table.Float64
)

// Validate verdicts (Listing 1's T_Action).
const (
	Commit   = itx.Commit
	Rollback = itx.Rollback
	Done     = itx.Done
)

// ML isolation levels (Section 4.2).
const (
	Synchronous      = isolation.Synchronous
	Asynchronous     = isolation.Asynchronous
	BoundedStaleness = isolation.BoundedStaleness
)

// ErrConflict is returned by Txn.Commit when another transaction committed
// a conflicting write first, including an ML uber-transaction holding an
// in-flight iterative version of a written row.
var ErrConflict = txn.ErrConflict

// ErrCrossKernelWrite is returned by the writes of a transaction Begin
// started on a database of several kernels: it reads one cut of every
// kernel, and cross-kernel OLTP writes are not supported.
var ErrCrossKernelWrite = txn.ErrCrossKernelWrite

// ErrClosed is returned by SubmitML and RunML after DB.Close.
var ErrClosed = fmt.Errorf("db4ml: database closed")

// ErrJobCancelled is reported by JobHandle.Wait when the job was cancelled
// (via JobHandle.Cancel; a context cancellation surfaces the context's
// error instead).
var ErrJobCancelled = exec.ErrJobCancelled

// Supervision-layer errors (see internal/resilience). Classify with
// errors.Is; the matched error also carries evidence retrievable with
// errors.As (resilience.PanicError, StallError, DeadlineError).
var (
	// ErrJobPanicked: a sub-transaction callback panicked; the panic was
	// contained, the uber-transaction aborted, and the stack is attached.
	ErrJobPanicked = resilience.ErrJobPanicked
	// ErrJobStalled: the progress watchdog saw no iteration heartbeat for
	// the configured stall window and retired the job.
	ErrJobStalled = resilience.ErrJobStalled
	// ErrJobDeadline: the job ran past its wall-clock deadline before
	// converging and was retired.
	ErrJobDeadline = resilience.ErrJobDeadline
	// ErrOverloaded: admission control rejected the submission — the
	// in-flight ML job limit (WithMaxInflight) was reached and waiting was
	// not enabled (WithAdmissionWait).
	ErrOverloaded = resilience.ErrOverloaded
)

// DB is one database: a cluster of N >= 1 kernels (WithShards, default 1)
// sharing one timestamp oracle, each with its own transaction manager,
// persistent execution pool and version reclaimer. The pools' workers —
// stand-ins for the paper's core-pinned threads — start at Open and serve
// every ML run submitted to this DB, interleaving concurrent
// uber-transactions; Close drains and stops them. One kernel is the
// paper's database; more are shard-per-node scale-out behind the same
// methods (see sharded.go).
type DB struct {
	supervisor

	cluster *shard.Cluster
	scheme  partition.Scheme

	tblMu  sync.RWMutex
	tables map[string]*ShardedTable

	// reclaimers holds each kernel's version garbage collector, run by
	// PruneNow and, under WithVersionGC, by its pool's maintenance goroutine.
	reclaimers []*gc.Reclaimer

	// dur is the durability state (WAL, checkpoint cache, crash killer),
	// non-nil only under WithWAL. It is armed AFTER recovery replay, so
	// replay never re-logs the records it is applying.
	dur *durability

	// Introspection state, nil without WithDebugServer: each kernel's span
	// tracer and aggregator (/metrics is their sum), the tracer of runs'
	// lifecycle spans (kernel 0's on one kernel, a coordinator's on a
	// cluster), and the sources /debug/trace merges.
	tracers  []*trace.Tracer
	aggs     []*introspect.Aggregator
	coTracer *trace.Tracer
	sources  []trace.Source
	debug    *introspect.Server
}

// Option configures Open.
type Option func(*openConfig)

type openConfig struct {
	workers     int
	regions     int
	chaos       chaos.Injector
	deadline    time.Duration
	retry       RetryPolicy
	maxInflight int
	admitWait   bool
	degrade     func(pressure float64, batch int) int
	debugAddr   string
	gcInterval  time.Duration
	shards      int
	shardScheme partition.Scheme
	walDir      string
	walPolicy   wal.SyncPolicy
	crash       *chaos.Killer
}

// WithWorkers sets the size of the database's worker pool (default
// GOMAXPROCS).
func WithWorkers(n int) Option { return func(c *openConfig) { c.workers = n } }

// WithRegions overrides the simulated NUMA region count of the pool's
// topology (default: the paper's 8-cores-per-region layout). The region
// count is clamped to the worker count so every region has a worker.
func WithRegions(n int) Option { return func(c *openConfig) { c.regions = n } }

// WithChaos attaches a fault injector to the database's worker pool, which
// perturbs cross-region work stealing. Per-run injection points are
// configured separately via MLRun.Chaos (usually with the same injector).
// Test/experiment only; see internal/chaos.
func WithChaos(inj FaultInjector) Option { return func(c *openConfig) { c.chaos = inj } }

// WithDeadline sets the default wall-clock budget for every ML run: a job
// that has not converged within d is retired and Wait reports
// ErrJobDeadline. MLRun.Deadline overrides it per run; 0 disables.
func WithDeadline(d time.Duration) Option { return func(c *openConfig) { c.deadline = d } }

// WithRetry sets the default abort-retry policy: a run that fails with a
// retryable error (by default panicked or stalled jobs — the
// uber-transaction aborted, so the rerun is side-effect-free) is
// resubmitted up to p.MaxAttempts times with deterministic backoff.
// MLRun.Retry overrides it per run.
func WithRetry(p RetryPolicy) Option { return func(c *openConfig) { c.retry = p } }

// WithMaxInflight bounds the number of concurrently admitted ML jobs
// (SubmitML calls in flight, including retries and final commit/abort). At
// the limit, SubmitML fast-fails with ErrOverloaded — load shedding —
// unless WithAdmissionWait is also set. n <= 0 leaves admission unbounded.
func WithMaxInflight(n int) Option { return func(c *openConfig) { c.maxInflight = n } }

// WithAdmissionWait makes a SubmitML that hits the WithMaxInflight limit
// block until a slot frees (or its ctx is cancelled) instead of
// fast-failing with ErrOverloaded.
func WithAdmissionWait() Option { return func(c *openConfig) { c.admitWait = true } }

// WithDegradation installs a batch-size degradation hook: on every
// admission the hook maps (gate pressure in [0,1], the run's resolved batch
// size) to the batch size actually used, letting the engine trade peak
// throughput for finer-grained scheduling under load. A nil fn installs
// DefaultDegradation. Without WithMaxInflight there is no pressure signal
// and the hook never shrinks anything.
func WithDegradation(fn func(pressure float64, batch int) int) Option {
	return func(c *openConfig) {
		if fn == nil {
			fn = DefaultDegradation
		}
		c.degrade = fn
	}
}

// WithVersionGC enables the background version garbage collector: every
// interval, a pool maintenance goroutine prunes all tables' version chains
// below the oldest active snapshot (the transaction manager's safe
// watermark) and strips superseded iterative-record slabs. Without it —
// and without manual PruneNow calls — version chains grow for the life of
// the process. GC never stalls workers or changes what any reader
// observes; it only reclaims versions no active transaction can reach.
func WithVersionGC(interval time.Duration) Option {
	return func(c *openConfig) { c.gcInterval = interval }
}

// WithDebugServer starts a live introspection HTTP server on addr (e.g.
// ":6060", or "127.0.0.1:0" to pick a free port — read it back with
// DB.DebugAddr). The server exposes /metrics (Prometheus text format,
// aggregated across every ML run), /debug/jobs (the live job table),
// /debug/trace (the shared span tracer as Chrome trace_event JSON, openable
// in Perfetto or about:tracing), and /debug/pprof. Enabling it auto-attaches
// an Observer and the shared Tracer to runs that don't bring their own.
// Open panics if addr cannot be bound — the server is an explicit opt-in,
// so failing to start it is a configuration error, not a degraded mode.
func WithDebugServer(addr string) Option { return func(c *openConfig) { c.debugAddr = addr } }

// DefaultDegradation is the built-in degradation policy: at pressure ≥ 0.75
// the batch size is quartered, at ≥ 0.5 halved, floored at 16. Smaller
// batches reach scheduling points (and cancellation/deadline checks) more
// often, smoothing latency when the pool is oversubscribed.
func DefaultDegradation(pressure float64, batch int) int {
	switch {
	case pressure >= 0.75:
		batch /= 4
	case pressure >= 0.5:
		batch /= 2
	}
	if batch < 16 {
		batch = 16
	}
	return batch
}

// Open creates an empty database of WithShards kernels (default 1) and
// starts every kernel's worker pool. Every option applies per kernel:
// WithWorkers sizes each pool, WithVersionGC runs each kernel's reclaimer,
// and WithDebugServer serves one surface over all of them. Call Close when
// done to stop the workers.
func Open(opts ...Option) *DB {
	oc := openConfig{shards: 1, shardScheme: ShardHash}
	for _, o := range opts {
		o(&oc)
	}
	n := max(oc.shards, 1)
	cfg := exec.Config{Workers: oc.workers, Chaos: oc.chaos}
	if oc.regions > 0 {
		cfg.Topology = numa.NewTopology(oc.regions, cfg.Resolved().Workers)
	}
	cluster, err := shard.NewCluster(n, cfg)
	if err != nil {
		// Unreachable: NewTopology clamps regions to the worker count, so
		// the only validated constraint always holds.
		panic("db4ml: " + err.Error())
	}
	db := &DB{
		supervisor: newSupervisor(&oc),
		cluster:    cluster,
		scheme:     oc.shardScheme,
		tables:     make(map[string]*ShardedTable),
		reclaimers: make([]*gc.Reclaimer, n),
		tracers:    make([]*trace.Tracer, n),
		aggs:       make([]*introspect.Aggregator, n),
	}
	for s := range db.reclaimers {
		db.reclaimers[s] = gc.New(cluster.Kernel(s).Mgr(), func() (locals []*table.Table) {
			for _, st := range db.tableSet() {
				locals = append(locals, st.Local(s))
			}
			return locals
		})
	}
	if oc.debugAddr != "" {
		db.serveDebug(oc.debugAddr, cfg.Resolved().Workers)
	}
	if oc.gcInterval > 0 {
		// Stopped by the pools' Close (DB.Close): the maintenance goroutines
		// are pool-owned.
		for s, r := range db.reclaimers {
			cluster.Kernel(s).Pool().Maintain(oc.gcInterval, func() { r.Pass() })
		}
	}
	if oc.walDir != "" {
		// Recovery runs before anything is served: checkpoint restore, WAL
		// tail replay, then the log is armed for new appends. Durability
		// telemetry is database-wide; it lives on kernel 0's aggregator.
		dur, err := recoverKernel(db, oc, db.aggs[0], db.coTracer)
		if err != nil {
			db.Close()
			panic("db4ml: recovery: " + err.Error())
		}
		db.dur = dur
	}
	return db
}

// serveDebug starts the debug server: one tracer and one aggregator per
// kernel — every kernel's reclaimer reports into its own, so /metrics
// carries versions_pruned/gc_passes and the gc_pause histogram beside the
// runs' telemetry — /metrics their sum, and /debug/trace one process per
// trace source.
func (db *DB) serveDebug(addr string, workers int) {
	for s, r := range db.reclaimers {
		db.tracers[s] = trace.New(workers, 0)
		db.aggs[s] = introspect.NewAggregator()
		gcObs := obs.New()
		r.SetObserver(gcObs)
		r.SetTracer(db.tracers[s])
		db.aggs[s].Attach(gcObs)
	}
	db.coTracer = db.tracers[0]
	db.sources = []trace.Source{{Name: "kernel", Tracer: db.coTracer}}
	if len(db.tracers) > 1 {
		// A cluster's lifecycle spans (uber-begin, per-shard prepare, 2PC
		// commit windows) get a tracer of their own beside the shards'.
		db.coTracer = trace.New(1, 0)
		db.sources = []trace.Source{{Name: "coordinator", Tracer: db.coTracer}}
		for s, t := range db.tracers {
			db.sources = append(db.sources, trace.Source{Name: fmt.Sprintf("shard%d", s), Tracer: t})
		}
	}
	srv, err := introspect.Start(introspect.Config{
		Addr:    addr,
		Metrics: func() obs.Snapshot { return introspect.Sum(db.aggs) },
		Jobs:    db.runs.jobs,
		Queries: db.runs.queryInfos,
		Shards:  db.shardInfos,
		Sources: db.sources,
	})
	if err != nil {
		db.cluster.Close()
		panic("db4ml: " + err.Error())
	}
	db.debug = srv
}

// PruneNow runs one version-GC pass on every kernel synchronously — each
// clamped to its own kernel's oldest active snapshot — and returns the
// number of versions reclaimed. Useful in tests and for databases opened
// without WithVersionGC.
func (db *DB) PruneNow() int {
	total := 0
	for _, r := range db.reclaimers {
		total += r.Pass().Pruned
	}
	return total
}

// GCStats reports the reclaimers' lifetime totals summed over every
// kernel: completed passes and versions reclaimed.
func (db *DB) GCStats() (passes, pruned uint64) {
	for _, r := range db.reclaimers {
		passes += r.Passes()
		pruned += r.TotalPruned()
	}
	return passes, pruned
}

// DebugAddr returns the debug server's bound address (host:port), or "" when
// WithDebugServer was not used.
func (db *DB) DebugAddr() string {
	if db.debug == nil {
		return ""
	}
	return db.debug.Addr()
}

// Close drains the in-flight ML jobs and stops every kernel's worker pool,
// then waits for every handle — including each uber-transaction's final
// commit or abort; a run waiting out a retry backoff starts no further
// attempt and resolves with ErrClosed. Further SubmitML/RunML calls fail
// with ErrClosed; OLTP transactions and reads keep working. Close is
// idempotent, and every concurrent Close waits for the full drain.
func (db *DB) Close() error {
	db.stopAdmitting()
	db.cluster.Close()
	db.handles.Wait()
	if db.dur != nil {
		// After the drain no commit is mid-append; Close flushes and fsyncs
		// the tail so a clean shutdown loses nothing even under WALSyncNone.
		_ = db.dur.log.Close()
	}
	if db.debug != nil {
		_ = db.debug.Close()
	}
	return nil
}

// CreateTable adds a new, empty ML-table and returns it. On a cluster the
// returned table is the global view: row ids are global, reads and scans
// resolve the owning shards' version chains directly, and placement follows
// the database's shard scheme (WithShardScheme).
func (db *DB) CreateTable(name string, cols ...Column) (*Table, error) {
	st, err := db.createTable(name, cols, db.dur)
	if err != nil {
		return nil, err
	}
	return st.View(), nil
}

// createTable registers a new table. Its creation is logged through d (nil
// during recovery) before registering: if the append fails (crash, I/O
// error) the table never existed, matching what recovery will reconstruct.
func (db *DB) createTable(name string, cols []Column, d *durability) (*ShardedTable, error) {
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
	return st, nil
}

// tableSet snapshots the registered tables.
func (db *DB) tableSet() []*ShardedTable {
	db.tblMu.RLock()
	defer db.tblMu.RUnlock()
	out := make([]*ShardedTable, 0, len(db.tables))
	for _, st := range db.tables {
		out = append(out, st)
	}
	return out
}

// managers lists every kernel's transaction manager in kernel order.
func (db *DB) managers() []*txn.Manager { return db.cluster.Managers() }

// Table returns a table by name, or nil.
func (db *DB) Table(name string) *Table {
	if st := db.ShardedTable(name); st != nil {
		return st.View()
	}
	return nil
}

// Begin starts an OLTP transaction. On one kernel it reads the most recent
// stable snapshot and may write. On a cluster it reads one cross-kernel
// cut — a timestamp at which every kernel is fully published, pinned on
// every kernel until Commit or Abort — through the tables' views, and its
// writes fail with ErrCrossKernelWrite: write through the owning kernel's
// manager (Cluster().Kernel(i).Mgr().Begin()) on its local table.
func (db *DB) Begin() *Txn {
	if mgrs := db.managers(); len(mgrs) > 1 {
		return txn.BeginCut(mgrs)
	}
	return db.Manager().Begin()
}

// BulkLoad appends rows to tbl in one atomic publish at one timestamp on
// every kernel: either every row is visible or, on error, the load stops
// and the loaded prefix remains — use fresh tables for loading. On a
// cluster rows are routed to their owning shards.
func (db *DB) BulkLoad(tbl *Table, rows []Payload) error {
	st, err := db.shardedOf(tbl)
	if err != nil {
		return err
	}
	ts, firstRow, err := st.Load(db.cluster, rows)
	if err != nil {
		return err
	}
	// Publish-then-log: the load is visible in memory before the append; an
	// append failure means it was never durable (and never acked).
	return db.dur.appendLoad(st.Name(), ts, firstRow, rows)
}

// Stable returns the newest timestamp at which every kernel is fully
// published; reads at Stable observe a consistent snapshot. A kernel may
// be ahead of it.
func (db *DB) Stable() Timestamp {
	ts := db.Manager().Stable()
	for _, m := range db.managers()[1:] {
		ts = min(ts, m.Stable())
	}
	return ts
}

// Manager exposes kernel 0's transaction manager — on one kernel, the
// database's — for advanced uses (the experiment harness and the internal
// ML implementations take it directly).
func (db *DB) Manager() *txn.Manager { return db.cluster.Kernel(0).Mgr() }

// Attachment names one table (and optionally a row subset) an ML run will
// update. Versions overrides the per-record snapshot-slot count; 0 uses
// the isolation level's default (Section 5.1 optimizations).
type Attachment = itx.Attachment

// MLRun describes one ML algorithm execution: which tables it updates,
// the sub-transactions to drive to convergence, and how to run them.
type MLRun struct {
	// Isolation selects the synchronization scheme.
	Isolation MLOptions
	// Label names the run in telemetry snapshots (default "job-<id>").
	Label string
	// BatchSize is the scheduling batch size (default 256).
	BatchSize int
	// MaxIterations force-retires sub-transactions after that many
	// committed iterations (0 = run to convergence).
	MaxIterations uint64
	// Deadline is this run's wall-clock budget; past it the job is retired
	// and Wait reports ErrJobDeadline. 0 uses the database default
	// (WithDeadline), which may itself be disabled.
	Deadline time.Duration
	// StallTimeout arms the progress watchdog for this run: no iteration
	// heartbeat for that long — a sub-transaction wedged in user code, a
	// scheduling livelock — convicts the job with ErrJobStalled. 0
	// disables it.
	StallTimeout time.Duration
	// Retry overrides the database's abort-retry policy (WithRetry) for
	// this run; nil inherits the default. Retried attempts reuse this
	// MLRun verbatim — retry is safe because each failed attempt's
	// uber-transaction aborted without publishing anything.
	Retry *RetryPolicy
	// Attach lists the tables the algorithm updates.
	Attach []Attachment
	// Subs are the user-defined iterative transactions.
	Subs []IterativeTransaction
	// RegionOf routes sub-transaction i to a NUMA region; nil spreads
	// round-robin.
	RegionOf func(i int) int
	// ShardOf routes sub-transaction i to a shard (clusters only; one
	// kernel ignores it). nil uses the default placement: sub i
	// runs on the shard owning global row i of the run's first attached
	// table — the convention of the built-in algorithms, whose sub i owns
	// row i.
	ShardOf func(i int) int
	// IterationHook runs before every sub-transaction execution
	// (experiments use it to inject stragglers).
	IterationHook func(worker int)
	// Observer, when non-nil, collects engine telemetry for this run
	// (counters, gauges, convergence series, latency histograms). nil keeps
	// telemetry fully disabled at zero cost — unless the database runs a
	// debug server (WithDebugServer), which auto-attaches one so /metrics
	// always has data. See NewObserver.
	Observer *Observer
	// Tracer, when non-nil, records this run's scheduling timeline into
	// per-worker ring buffers (see NewTracer). nil inherits the debug
	// server's shared tracer when one is enabled, else tracing stays fully
	// disabled at zero cost.
	Tracer *Tracer
	// ConvergeTogether (synchronous level only) retires sub-transactions
	// collectively at the first round where every live one votes Done —
	// the global convergence criterion of bulk-synchronous engines. Use
	// it when a sub-transaction's value can become momentarily stable
	// while its inputs still change (e.g. PageRank).
	ConvergeTogether bool
	// Chaos, when non-nil, injects deterministic scheduling faults into
	// this run (see internal/chaos). Test/experiment only.
	Chaos FaultInjector
	// Recorder, when non-nil, records this run's isolation-relevant
	// history for post-hoc invariant checking (see internal/check). nil
	// keeps recording fully disabled at zero cost. One kernel only: a
	// cluster's SubmitML rejects a run with a Recorder, since each shard
	// numbers its sub-transactions from zero (internal/check records
	// distributed runs through exec.StartUber, one recorder per shard).
	Recorder RunRecorder
}

// JobHandle tracks one in-flight ML run submitted with SubmitML, on one
// kernel or across several. Under a retry policy one
// handle spans every attempt: the run is swapped on resubmission and Wait
// resolves only when the final attempt committed or failed terminally.
type JobHandle struct {
	handleCore
	run       atomic.Pointer[exec.UberRun]
	observers []*Observer
	started   time.Time
	stats     ExecStats
}

// CommitTS returns the uber-transaction's commit timestamp — on several
// kernels the one timestamp every kernel published at: zero until the job
// resolved, and zero forever if it aborted or was never acknowledged (a
// crashed run may have published in the dying process's memory, but an
// unacknowledged commit has no timestamp the caller may rely on).
func (h *JobHandle) CommitTS() Timestamp { return h.commitTS() }

// Wait blocks until the job finished (including the uber-transaction's
// commit or abort, and any retries) and returns its final stats. Stats are
// meaningful even on error: a cancelled job reports the work done before
// the cancellation took effect; a retried job reports its last attempt. On
// several kernels they combine every kernel's (exec.SumStats); see
// ShardStats for the breakdown.
func (h *JobHandle) Wait() (ExecStats, error) {
	<-h.done
	return h.stats, h.err
}

// Stats returns a live snapshot while the job runs, or the final stats
// once it finished.
func (h *JobHandle) Stats() ExecStats {
	select {
	case <-h.done:
		return h.stats
	default:
		return exec.SumStats(h.run.Load().Stats())
	}
}

// ShardStats returns every kernel's stats (index = shard id; one entry on
// a single kernel; zero for a shard that ran no sub-transactions): live
// while the job runs, the final attempt's once it finished.
func (h *JobHandle) ShardStats() []ExecStats { return h.run.Load().Stats() }

// ShardObservers returns the per-kernel observers (index = shard id), or
// nil when the run has none. Shard 0's is MLRun.Observer when one was
// given; the rest were auto-attached.
func (h *JobHandle) ShardObservers() []*Observer { return h.observers }

// ShardSnapshots exports every kernel's telemetry snapshot (nil without
// observers).
func (h *JobHandle) ShardSnapshots() []TelemetrySnapshot {
	if h.observers == nil {
		return nil
	}
	out := make([]TelemetrySnapshot, len(h.observers))
	for i, o := range h.observers {
		out[i] = o.Snapshot()
	}
	return out
}

// mlRun is one ML run as the database lays it out on its kernels: the
// uber-transaction with one part per kernel, each part's /metrics
// aggregator, and the tables its commit logs.
type mlRun struct {
	spec   exec.UberSpec
	aggs   []*introspect.Aggregator // index = part; nil aggregates nothing
	tables []*table.Table
}

// submitML starts an admitted run and hands it to the retry loop, which
// owns its slot from here on. It is the one ML sequence: every attempt
// starts the uber-transaction, waits for it and commits or aborts it
// (exec.UberRun.Finish), logs the commit through db.dur, and only then
// acknowledges it. Cancelling the handle cancels the attempt's jobs.
func (db *DB) submitML(ctx context.Context, set settings, m mlRun) (*JobHandle, error) {
	start := func() (*exec.UberRun, error) {
		r, err := exec.StartUber(m.spec)
		if errors.Is(err, exec.ErrPoolClosed) {
			err = ErrClosed
		}
		return r, err
	}
	r, err := start()
	if err != nil {
		db.release()
		return nil, err
	}
	h := &JobHandle{started: time.Now()}
	h.init(ctx)
	h.run.Store(r)
	o0 := m.spec.Parts[0].Job.Observer
	if o0 != nil {
		for i, p := range m.spec.Parts {
			h.observers = append(h.observers, p.Job.Observer)
			m.aggs[i].Attach(p.Job.Observer)
		}
	}
	db.runs.track(&h.handleCore, func(state string) []introspect.JobInfo {
		// One row per job, so the shards of one run read side by side; all
		// rows share its correlation id.
		r := h.run.Load()
		var rows []introspect.JobInfo
		for i, j := range r.Jobs() {
			if j == nil {
				continue
			}
			info := introspect.NewJobInfo(r.TraceID(), j.Label(), state,
				h.Attempts(), j.Live(), j.Total(), j.Started(), set.deadline)
			if len(m.spec.Parts) > 1 {
				info.Shard = &i
			}
			rows = append(rows, info)
		}
		return rows
	})
	go db.supervise(&h.handleCore, attempt{
		policy: set.policy,
		token:  r.TraceID(),
		obs:    o0,
		tracer: m.spec.Tracer,
		try: func() (bool, error) {
			r := h.run.Load()
			stop := context.AfterFunc(h.ctx, r.Cancel)
			stats, ts, err := r.Finish()
			stop()
			h.stats = stats
			if errors.Is(err, chaos.ErrCrashed) {
				// A kill-point fired: the "process" is dead. Freeze the WAL
				// and resolve terminally — recovery, not retry, follows.
				db.dur.freeze()
				return false, err
			}
			if err != nil {
				return r.Retryable(), err
			}
			if err := db.dur.appendCommit(ts, m.tables, r.TraceID()); err != nil {
				// The append or its fsync failed — the commit may not
				// survive a restart, so it must not be acknowledged.
				return false, err
			}
			h.ts = ts
			// End-to-end latency: first submission to atomic publish,
			// spanning every retry attempt in between.
			if o0 != nil {
				o0.RecordLatency(0, obs.JobCommitLatency, int64(time.Since(h.started)))
			}
			return false, nil
		},
		resubmit: func() (uint64, error) {
			next, err := start()
			if err != nil {
				return 0, err
			}
			h.run.Store(next)
			return next.TraceID(), nil
		},
		settle: func() {
			db.runs.settle(&h.handleCore)
			for i, o := range h.observers {
				m.aggs[i].Complete(o)
			}
		},
	})
	return h, nil
}

// subsOf is a part's Build for sub-transactions made before the run began.
func subsOf(subs []IterativeTransaction) func(storage.Timestamp) ([]itx.Sub, func(int) int, error) {
	return func(storage.Timestamp) ([]itx.Sub, func(int) int, error) { return subs, nil, nil }
}

// SubmitML starts one ML algorithm as an uber-transaction and returns
// without waiting: it installs iterative records on the attached tables,
// then drives the sub-transactions to convergence on the worker pools
// concurrently with any other in-flight jobs. On success the result is
// atomically published; on error or cancellation the uber-transaction is
// aborted and the tables are untouched. Cancelling ctx cancels the job
// (Wait then reports ctx's error). On a cluster the uber-transaction spans
// every shard (see layout): all are begun and attached before any
// executes, the result publishes on every shard at one timestamp, and any
// shard's failure aborts it everywhere.
func (db *DB) SubmitML(ctx context.Context, run MLRun) (*JobHandle, error) {
	if err := db.admit(ctx, run.Observer); err != nil {
		return nil, err
	}
	set := db.settings(run)
	m, err := db.layout(run, set)
	if err != nil {
		db.release()
		return nil, err
	}
	return db.submitML(ctx, set, m)
}

// layout lays run out on the kernels: one part per kernel, each with its
// own job configuration and observer. One kernel runs the attachments and
// sub-transactions as given. A cluster splits them by shard (split: sub i
// runs on shard MLRun.ShardOf(i)), suffixes each part's label with its
// shard, and under the synchronous level ties the shards' barriers into one
// global rendezvous, so "reads see exactly the previous iteration" holds
// across shards too. The commit logs the attached tables: a view's chains
// are the locals' chains, so after-images read identically.
func (db *DB) layout(run MLRun, set settings) (mlRun, error) {
	n := db.cluster.Shards()
	var attach [][]Attachment
	var subs [][]IterativeTransaction
	if n > 1 {
		var err error
		if attach, subs, err = db.split(run); err != nil {
			return mlRun{}, err
		}
	}
	tracer := run.Tracer
	if tracer == nil {
		tracer = db.coTracer
	}
	m := mlRun{
		spec: exec.UberSpec{
			Isolation:     run.Isolation,
			Parts:         make([]exec.UberPart, n),
			GlobalBarrier: n > 1 && run.Isolation.Level == Synchronous,
			Crash:         db.dur.killer(),
			Tracer:        tracer,
		},
		aggs:   db.aggs,
		tables: distinctTables(run.Attach),
	}
	for s := range m.spec.Parts {
		cfg := set.jobConfig(run)
		if cfg.Tracer == nil {
			cfg.Tracer = db.tracers[s]
		}
		if s > 0 || cfg.Observer == nil {
			// Part 0 reports to the caller's observer. Every other part of an
			// instrumented run, and every part of a run under the debug
			// server, gets its own, so /metrics and /debug/shards see it.
			cfg.Observer = nil
			if run.Observer != nil || db.aggs[s] != nil {
				cfg.Observer = obs.New()
			}
		}
		att, sub := run.Attach, run.Subs
		if n > 1 {
			att, sub = attach[s], subs[s]
			if run.Label != "" {
				cfg.Label = fmt.Sprintf("%s@s%d", run.Label, s)
			}
		}
		k := db.cluster.Kernel(s)
		m.spec.Parts[s] = exec.UberPart{Pool: k.Pool(), Mgr: k.Mgr(), Attach: att, Build: subsOf(sub), Job: cfg}
	}
	return m, nil
}

// RunML executes one ML algorithm as an uber-transaction and blocks until
// it finished — SubmitML followed by Wait. On error the uber-transaction
// is aborted and the tables are untouched.
func (db *DB) RunML(run MLRun) (ExecStats, error) {
	h, err := db.SubmitML(context.Background(), run)
	if err != nil {
		return ExecStats{}, err
	}
	return h.Wait()
}
