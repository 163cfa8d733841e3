package db4ml

import (
	"context"
	"fmt"
	"time"

	"db4ml/internal/obs"
	"db4ml/internal/plan"
	"db4ml/internal/relational"
)

// The declarative query layer (internal/plan), re-exported. Build a
// logical plan from the node constructors, then run it through
// PrepareQuery (streaming cursor) or SubmitQuery/RunQuery (supervised,
// materialized, sharing the ML jobs' admission gate, deadline, and retry
// machinery). See DESIGN.md §14.
type (
	// Plan is one logical plan node; trees are built with Scan, Filter,
	// Join, Iterate, and friends.
	Plan = plan.Node
	// QueryPred is a filter conjunct (IntCmp, FloatCmp, RowRange, ...).
	QueryPred = plan.Pred
	// Scalar is a projection/aggregation expression (Col, Const, Add, ...).
	Scalar = plan.Scalar
	// IterateSpec describes an iterate node's embedded ML job.
	IterateSpec = plan.IterateSpec
	// PreparedQuery is a validated, rewritten plan ready to Execute.
	PreparedQuery = plan.Prepared
	// QueryCursor streams a prepared query's result tuples.
	QueryCursor = plan.Cursor
	// QueryOpStat is one operator's rows-in/rows-out account.
	QueryOpStat = plan.OpStat
	// ExplainNode is one operator of an EXPLAIN / EXPLAIN ANALYZE plan
	// tree (see DB.ExplainQuery and QueryHandle.Explain; Render formats
	// it as an indented tree).
	ExplainNode = plan.ExplainNode
	// IterStats is the executor account of one iterate node's ML job.
	IterStats = plan.IterStats
	// Relation is a materialized query result.
	Relation = relational.Relation
	// Tuple is one result row.
	Tuple = relational.Tuple
	// AggKind selects the aggregation function (Sum, Count).
	AggKind = relational.AggKind
	// CmpOp is a predicate comparison operator (Eq, Lt, Ge, ...).
	CmpOp = plan.CmpOp
)

// Plan node constructors, predicates, and expressions (see internal/plan).
var (
	Scan      = plan.Scan
	Static    = plan.Static
	Filter    = plan.Filter
	Project   = plan.Project
	Join      = plan.Join
	LeftJoin  = plan.LeftJoin
	Aggregate = plan.Aggregate
	SortBy    = plan.SortBy
	Limit     = plan.Limit
	Iterate   = plan.Iterate

	IntCmp    = plan.IntCmp
	FloatCmp  = plan.FloatCmp
	ColTest   = plan.ColTest
	TuplePred = plan.TuplePred
	RowRange  = plan.RowRange

	Col   = plan.Col
	Const = plan.Const
	Add   = plan.Add
	Sub   = plan.Sub
	Mul   = plan.Mul
	Div   = plan.Div
)

// Aggregation kinds.
const (
	Sum   = relational.Sum
	Count = relational.Count
)

// Predicate comparison operators.
const (
	Eq = plan.Eq
	Ne = plan.Ne
	Lt = plan.Lt
	Le = plan.Le
	Gt = plan.Gt
	Ge = plan.Ge
)

// QueryRun describes one supervised query execution.
type QueryRun struct {
	// Plan is the logical plan to run.
	Plan *Plan
	// Deadline is the query's wall-clock budget; past it the run is
	// cancelled and Wait reports ErrJobDeadline. 0 uses the database
	// default (WithDeadline), which may itself be disabled.
	Deadline time.Duration
	// Retry overrides the database's abort-retry policy for this query;
	// nil inherits the default. Retrying is safe: a failed execution's
	// iterate jobs aborted without publishing, and pure reads have no
	// side effects.
	Retry *RetryPolicy
	// Observer, when non-nil, receives the query's counters
	// (plan_queries, plan_rows) and latency histogram. nil keeps
	// telemetry disabled — unless a debug server auto-attaches one.
	Observer *Observer
	// Tracer, when non-nil, records the query's plan/operator spans; nil
	// inherits the debug server's shared tracer when one is enabled.
	Tracer *Tracer
}

// QueryHandle tracks one in-flight SubmitQuery. Like JobHandle, one handle
// spans every retry attempt and Wait resolves only when the final attempt
// produced a result or failed terminally.
type QueryHandle struct {
	handleCore
	result  *Relation
	stats   []QueryOpStat
	iters   []IterStats
	explain *ExplainNode
}

// Wait blocks until the query finished and returns the materialized
// result.
func (h *QueryHandle) Wait() (*Relation, error) {
	<-h.done
	return h.result, h.err
}

// Stats returns the final execution's per-operator row counts; valid after
// Wait.
func (h *QueryHandle) Stats() []QueryOpStat { return h.stats }

// IterStats returns the final execution's iterate-node accounts (one per
// embedded ML job); valid after Wait.
func (h *QueryHandle) IterStats() []IterStats { return h.iters }

// Explain returns the final execution's plan tree: EXPLAIN ANALYZE — per-
// operator rows in/out, elapsed time, and the planner's pushdown/pre-size
// annotations — for single-kernel queries, and the planner's EXPLAIN tree
// for scattered queries (whose fragments report no single cursor). Valid
// after Wait; nil when the query failed before planning.
func (h *QueryHandle) Explain() *ExplainNode {
	<-h.done
	return h.explain
}

// queryEnv assembles kernel s's plan.Env from the database's engine
// state plus the per-run overrides, mirroring how SubmitML resolves its
// JobConfig; id tags the query's spans.
func (db *DB) queryEnv(run QueryRun, s int, id uint64) plan.Env {
	env := plan.Env{
		Mgr:    db.cluster.Kernel(s).Mgr(),
		Pool:   db.cluster.Kernel(s).Pool(),
		Obs:    run.Observer,
		Tracer: run.Tracer,
		Job:    id,
	}
	if env.Tracer == nil {
		env.Tracer = db.tracers[s]
	}
	return env
}

// PrepareQuery validates and plans p against this database, returning the
// prepared form for streaming execution:
//
//	prep, _ := db.PrepareQuery(db4ml.Filter(db4ml.Scan(tbl), pred))
//	cur, _ := prep.Execute(ctx)
//	defer cur.Close()
//	for t, ok := cur.Next(); ok; t, ok = cur.Next() { ... }
//
// PrepareQuery is the unsupervised path: no admission gate, deadline, or
// retry — the caller owns the cursor's lifetime. Use SubmitQuery/RunQuery
// for supervised, materialized execution. A cluster's queries scatter and
// gather, with no single cursor: there it returns an error.
func (db *DB) PrepareQuery(p *Plan) (*PreparedQuery, error) {
	if db.cluster.Shards() > 1 {
		return nil, fmt.Errorf("db4ml: PrepareQuery on %d kernels: use SubmitQuery or RunQuery", db.cluster.Shards())
	}
	return plan.Prepare(p, db.queryEnv(QueryRun{}, 0, db.queryID.Add(1)))
}

// ExplainQuery validates and rewrites p exactly as execution would —
// filter merge, predicate pushdown, pre-sizing — and returns the annotated
// operator tree without executing anything: EXPLAIN. Render the result
// with ExplainNode.Render; run the query through SubmitQuery and read
// QueryHandle.Explain for the measured EXPLAIN ANALYZE form.
func (db *DB) ExplainQuery(p *Plan) (*ExplainNode, error) {
	return plan.Explain(p, db.queryEnv(QueryRun{}, 0, db.queryID.Add(1)))
}

// SubmitQuery starts one supervised query execution and returns without
// waiting. The query shares the ML jobs' supervision machinery: admission
// through the same WithMaxInflight gate, the database's default deadline,
// and the abort-retry policy (safe — a failed execution published
// nothing). The result is fully materialized into the handle.
//
// On a cluster the scan/filter/project pipeline scatters, each shard's
// fragment at its own snapshot over the rows it owns, and the rest
// gathers. Joins, iterate nodes, and RowRange predicates cannot scatter and
// fail before admission; Stats is nil and Explain the planner's tree.
func (db *DB) SubmitQuery(ctx context.Context, run QueryRun) (*QueryHandle, error) {
	n := db.cluster.Shards()
	if n > 1 {
		if err := plan.CheckScatter(run.Plan); err != nil {
			return nil, err
		}
	}
	if err := db.admit(ctx, run.Observer); err != nil {
		return nil, err
	}
	env := db.queryEnv(run, 0, db.queryID.Add(1))
	if db.aggs[0] != nil && env.Obs == nil {
		// One observer serves every kernel's fragment; it lives on kernel
		// 0's aggregator.
		env.Obs = obs.New()
	}
	h := &QueryHandle{}
	var execute func(ctx context.Context) error
	if n == 1 {
		prep, err := plan.Prepare(run.Plan, env)
		if err != nil {
			db.release()
			return nil, err
		}
		execute = func(ctx context.Context) error {
			rel, stats, iters, expl, err := runOnce(ctx, prep)
			if expl == nil {
				// The execution died before producing a cursor; fall back to
				// the planner's tree so Explain (and /debug/query) still show
				// the plan.
				expl = prep.Explain()
			}
			h.result, h.stats, h.iters, h.explain = rel, stats, iters, expl
			return err
		}
	} else {
		envs := make([]plan.Env, n)
		for s := range envs {
			envs[s] = db.queryEnv(run, s, env.Job)
			envs[s].Obs = env.Obs
		}
		// Scattered execution has no single root cursor, so the handle
		// carries the planner's EXPLAIN tree instead of a measured ANALYZE one.
		h.explain, _ = plan.Explain(run.Plan, env)
		execute = func(ctx context.Context) (err error) {
			h.result, err = plan.ScatterGather(ctx, run.Plan, envs, db.rebindScan)
			return err
		}
	}
	db.aggs[0].Attach(env.Obs)
	h.init(ctx)
	db.superviseQuery(h, run, env, db.aggs[0], execute)
	return h, nil
}

// runOnce executes the prepared plan once and materializes the result,
// returning the drained cursor's EXPLAIN ANALYZE tree alongside.
func runOnce(ctx context.Context, prep *PreparedQuery) (*Relation, []QueryOpStat, []IterStats, *ExplainNode, error) {
	cur, err := prep.Execute(ctx)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	defer cur.Close()
	out := &Relation{Cols: append([]string(nil), prep.Columns()...)}
	for {
		t, ok := cur.Next()
		if !ok {
			break
		}
		out.Rows = append(out.Rows, t.Clone())
	}
	if err := cur.Err(); err != nil {
		cur.Close()
		return nil, nil, nil, cur.Explain(), err
	}
	cur.Close()
	return out, cur.Stats(), cur.IterStats(), cur.Explain(), nil
}

// RunQuery executes one query and blocks until its materialized result is
// ready — SubmitQuery followed by Wait.
func (db *DB) RunQuery(ctx context.Context, run QueryRun) (*Relation, error) {
	h, err := db.SubmitQuery(ctx, run)
	if err != nil {
		return nil, err
	}
	return h.Wait()
}
