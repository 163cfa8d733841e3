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

// DB is one database instance: a set of ML-tables sharing a transaction
// manager, a timestamp oracle, and one persistent execution pool. The pool's
// workers — stand-ins for the paper's core-pinned threads — start at Open
// and serve every ML run submitted to this DB, interleaving concurrent
// uber-transactions; Close drains and stops them.
type DB struct {
	supervisor

	mgr  *txn.Manager
	pool *exec.Pool

	tblMu  sync.RWMutex
	tables map[string]*Table

	// reclaimer is the version garbage collector, always constructed so
	// PruneNow works; WithVersionGC additionally runs it periodically on a
	// pool maintenance goroutine. gcObs is its dedicated observer, non-nil
	// only under WithDebugServer (it feeds the /metrics GC families).
	reclaimer *gc.Reclaimer
	gcObs     *obs.Observer

	// dur is the durability state (WAL, checkpoint cache, crash killer),
	// non-nil only under WithWAL. It is armed AFTER recovery replay, so
	// replay never re-logs the records it is applying.
	dur *durability

	// Introspection state, non-nil only under WithDebugServer: a shared
	// span tracer, the aggregator folding every run's telemetry into the
	// /metrics totals, and the server itself.
	tracer *trace.Tracer
	agg    *introspect.Aggregator
	debug  *introspect.Server
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

// Open creates an empty database and starts its worker pool. Call Close
// when done to stop the workers.
func Open(opts ...Option) *DB {
	var oc openConfig
	for _, o := range opts {
		o(&oc)
	}
	cfg := exec.Config{Workers: oc.workers, Chaos: oc.chaos}
	if oc.regions > 0 {
		cfg.Topology = numa.NewTopology(oc.regions, cfg.Resolved().Workers)
	}
	pool, err := exec.NewPool(cfg)
	if err != nil {
		// Unreachable: NewTopology clamps regions to the worker count, so
		// the only validated constraint always holds.
		panic("db4ml: " + err.Error())
	}
	db := &DB{
		supervisor: newSupervisor(&oc),
		mgr:        txn.NewManager(),
		tables:     make(map[string]*Table),
		pool:       pool,
	}
	db.reclaimer = gc.New(db.mgr, db.tableList)
	if oc.debugAddr != "" {
		db.tracer = trace.New(cfg.Resolved().Workers, 0)
		db.agg = introspect.NewAggregator()
		srv, err := introspect.Start(introspect.Config{
			Addr:    oc.debugAddr,
			Metrics: db.agg.Snapshot,
			Jobs:    db.runs.jobs,
			Queries: db.runs.queryInfos,
			Tracer:  db.tracer,
		})
		if err != nil {
			pool.Close()
			panic("db4ml: " + err.Error())
		}
		db.debug = srv
		// The GC's own observer stays attached for the server's lifetime so
		// /metrics carries versions_pruned/gc_passes and the gc_pause
		// histogram alongside the per-run telemetry.
		db.gcObs = obs.New()
		db.reclaimer.SetObserver(db.gcObs)
		db.reclaimer.SetTracer(db.tracer)
		db.agg.Attach(db.gcObs)
	}
	if oc.gcInterval > 0 {
		// Stopped by pool.Close (DB.Close): the maintenance goroutine is
		// pool-owned.
		pool.Maintain(oc.gcInterval, func() { db.reclaimer.Pass() })
	}
	if oc.walDir != "" {
		// Recovery runs before anything is served: checkpoint restore, WAL
		// tail replay, then the log is armed for new appends.
		dur, err := recoverKernel(db, oc, db.agg, db.tracer)
		if err != nil {
			db.Close()
			panic("db4ml: recovery: " + err.Error())
		}
		db.dur = dur
	}
	return db
}

// tableList snapshots the current table set.
func (db *DB) tableList() []*table.Table {
	db.tblMu.RLock()
	defer db.tblMu.RUnlock()
	out := make([]*table.Table, 0, len(db.tables))
	for _, t := range db.tables {
		out = append(out, t)
	}
	return out
}

// PruneNow runs one version-GC pass synchronously — all tables, watermark
// clamped to the oldest active snapshot — and returns the number of
// versions reclaimed. Useful in tests and for databases opened without
// WithVersionGC.
func (db *DB) PruneNow() int {
	return db.reclaimer.Pass().Pruned
}

// GCStats reports the reclaimer's lifetime totals: completed passes and
// versions reclaimed.
func (db *DB) GCStats() (passes, pruned uint64) {
	return db.reclaimer.Passes(), db.reclaimer.TotalPruned()
}

// DebugAddr returns the debug server's bound address (host:port), or "" when
// WithDebugServer was not used.
func (db *DB) DebugAddr() string {
	if db.debug == nil {
		return ""
	}
	return db.debug.Addr()
}

// Close drains the in-flight ML jobs — including each uber-transaction's
// final commit or abort — and stops the worker pool. Further SubmitML/RunML
// calls fail with ErrClosed; OLTP transactions and reads keep working.
// Close is idempotent, and every concurrent Close waits for the full drain
// rather than returning early while another Close is still draining.
func (db *DB) Close() error {
	db.stopAdmitting()
	db.pool.Close()
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

// CreateTable adds a new, empty ML-table.
func (db *DB) CreateTable(name string, cols ...Column) (*Table, error) {
	return db.createTable(name, cols, db.dur)
}

// createTable registers a new table. Its creation is logged through d (nil
// during recovery) before registering: if the append fails (crash, I/O
// error) the table never existed, matching what recovery will reconstruct.
func (db *DB) createTable(name string, cols []Column, d *durability) (*Table, error) {
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
	t := table.New(name, schema)
	db.tables[name] = t
	return t, nil
}

// loadAt appends rows to tbl in one publish at ts (recovery's bulk load):
// one bulk append that takes the decoded payloads over.
func (db *DB) loadAt(tbl *Table, ts Timestamp, rows []Payload) (err error) {
	db.publishAt(ts, func(ts Timestamp) { _, err = tbl.AppendOwned(ts, rows) })
	return err
}

// appendRows appends rows to tbl at ts, stopping at the first error.
func appendRows(tbl *Table, ts Timestamp, rows []Payload) error {
	for _, p := range rows {
		if _, err := tbl.Append(ts, p); err != nil {
			return err
		}
	}
	return nil
}

// publishAt runs publish inside one publish at ts.
func (db *DB) publishAt(ts Timestamp, publish func(ts Timestamp)) {
	db.mgr.Prepare().CommitAt(ts, publish)
}

func (db *DB) managers() []*txn.Manager { return []*txn.Manager{db.mgr} }

func (db *DB) mutations(tbl *Table) uint64 { return tbl.Mutations() }

// Table returns a table by name, or nil.
func (db *DB) Table(name string) *Table {
	db.tblMu.RLock()
	defer db.tblMu.RUnlock()
	return db.tables[name]
}

// Begin starts an OLTP transaction on the most recent stable snapshot.
func (db *DB) Begin() *Txn { return db.mgr.Begin() }

// BulkLoad appends rows to tbl in one atomic publish: either every row is
// visible (all with the same timestamp) or, on error, the load stops and
// the loaded prefix remains — use fresh tables for loading.
func (db *DB) BulkLoad(tbl *Table, rows []Payload) error {
	var err error
	var firstRow int
	ts := db.mgr.PublishAt(func(ts Timestamp) {
		firstRow = tbl.NumRows()
		err = appendRows(tbl, ts, rows)
	})
	if err != nil {
		return err
	}
	// Publish-then-log: the load is visible in memory before the append; an
	// append failure means it was never durable (and never acked).
	return db.dur.appendLoad(tbl.Name(), ts, firstRow, rows)
}

// Stable returns the newest fully published commit timestamp; reads at
// Stable observe a consistent snapshot.
func (db *DB) Stable() Timestamp { return db.mgr.Stable() }

// Manager exposes the underlying transaction manager for advanced uses
// (the experiment harness and the internal ML implementations take it
// directly).
func (db *DB) Manager() *txn.Manager { return db.mgr }

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
	// ShardOf routes sub-transaction i to a shard (sharded databases only;
	// single-kernel runs ignore it). nil uses the default placement: sub i
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
	// keeps recording fully disabled at zero cost. Single-kernel runs
	// only: a sharded database's SubmitML rejects a run with a Recorder,
	// since each shard numbers its sub-transactions from zero (internal/check
	// records sharded runs through exec.StartUber, one recorder per shard).
	Recorder RunRecorder
}

// JobHandle tracks one in-flight ML run submitted with SubmitML, on one
// kernel or across a sharded database's kernels. Under a retry policy one
// handle spans every attempt: the run is swapped on resubmission and Wait
// resolves only when the final attempt committed or failed terminally.
type JobHandle struct {
	handleCore
	run       atomic.Pointer[exec.UberRun]
	observers []*Observer
	started   time.Time
	stats     ExecStats
}

// CommitTS returns the uber-transaction's commit timestamp — on a sharded
// database the one timestamp every shard published at: zero until the job
// resolved, and zero forever if it aborted or was never acknowledged (a
// crashed run may have published in the dying process's memory, but an
// unacknowledged commit has no timestamp the caller may rely on).
func (h *JobHandle) CommitTS() Timestamp { return h.commitTS() }

// Wait blocks until the job finished (including the uber-transaction's
// commit or abort, and any retries) and returns its final stats. Stats are
// meaningful even on error: a cancelled job reports the work done before
// the cancellation took effect; a retried job reports its last attempt. On
// a sharded database they combine every shard's (exec.SumStats); see
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

// mlRun is one ML run as a facade lays it out on its kernels: the
// uber-transaction with one part per kernel, each part's /metrics
// aggregator, and the tables its commit logs.
type mlRun struct {
	spec   exec.UberSpec
	aggs   []*introspect.Aggregator // index = part; nil aggregates nothing
	tables []*table.Table
	// sharded tags each /debug/jobs row with its part's shard id.
	sharded bool
}

// submitML starts an admitted run and hands it to the retry loop, which
// owns its slot from here on. It is the one ML sequence of both facades:
// every attempt starts the uber-transaction, waits for it and commits or
// aborts it (exec.UberRun.Finish), logs the commit through dur, and only
// then acknowledges it. Cancelling the handle cancels the attempt's jobs.
func (s *supervisor) submitML(ctx context.Context, set settings, dur *durability, m mlRun) (*JobHandle, error) {
	start := func() (*exec.UberRun, error) {
		r, err := exec.StartUber(m.spec)
		if errors.Is(err, exec.ErrPoolClosed) {
			err = ErrClosed
		}
		return r, err
	}
	r, err := start()
	if err != nil {
		s.release()
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
	s.runs.track(&h.handleCore, func(state string) []introspect.JobInfo {
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
			if m.sharded {
				info.Shard = &i
			}
			rows = append(rows, info)
		}
		return rows
	})
	go s.supervise(&h.handleCore, attempt{
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
				dur.freeze()
				return false, err
			}
			if err != nil {
				return r.Retryable(), err
			}
			if err := dur.appendCommit(ts, m.tables, r.TraceID()); err != nil {
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
			s.runs.settle(&h.handleCore)
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

// SubmitML starts one ML algorithm as an uber-transaction on the
// database's shared worker pool and returns without waiting: it installs
// iterative records on the attached tables, then drives the
// sub-transactions to convergence concurrently with any other in-flight
// jobs. On success the result is atomically published; on error or
// cancellation the uber-transaction is aborted and the tables are
// untouched. Cancelling ctx cancels the job (Wait then reports ctx's
// error).
func (db *DB) SubmitML(ctx context.Context, run MLRun) (*JobHandle, error) {
	if err := db.admit(ctx, run.Observer); err != nil {
		return nil, err
	}
	set := db.settings(run)
	cfg := set.jobConfig(run)
	if cfg.Tracer == nil {
		cfg.Tracer = db.tracer
	}
	if db.agg != nil && cfg.Observer == nil {
		// The debug server aggregates across runs; give uninstrumented runs
		// an observer so /metrics reflects them too.
		cfg.Observer = obs.New()
	}
	return db.submitML(ctx, set, db.dur, mlRun{
		spec: exec.UberSpec{
			Isolation: run.Isolation,
			Parts: []exec.UberPart{{
				Pool: db.pool, Mgr: db.mgr, Attach: run.Attach, Build: subsOf(run.Subs), Job: cfg,
			}},
			Crash:  db.dur.killer(),
			Tracer: cfg.Tracer,
		},
		aggs:   []*introspect.Aggregator{db.agg},
		tables: distinctTables(run.Attach),
	})
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
