package plan

import (
	"context"
	"fmt"
	"time"

	"db4ml/internal/exec"
	"db4ml/internal/itx"
	"db4ml/internal/obs"
	"db4ml/internal/relational"
	"db4ml/internal/storage"
	"db4ml/internal/trace"
)

// ctxCheckStride is how many tuples an operator emits between context
// checks — streaming, and the input drains of hash builds, aggregates and
// sorts, stay cancellable without paying a ctx.Err() per row.
const ctxCheckStride = 256

// OpStat is one operator's account of an execution: tuples it consumed
// from its children and tuples it produced. The per-operator analogue of
// EXPLAIN ANALYZE row counts.
type OpStat struct {
	// Op names the operator (scan/filter/join/...), with "+pushdown" on
	// scans that carried a storage-level hint.
	Op string `json:"op"`
	// RowsIn is the total tuples the operator pulled from its children.
	RowsIn uint64 `json:"rows_in"`
	// RowsOut is the tuples the operator emitted.
	RowsOut uint64 `json:"rows_out"`
}

// opNode decorates every physical operator: it forwards planner hints into
// Open, counts rows out, ends its stream early once ctx is cancelled
// (checked every ctxCheckStride rows), and emits one KindPlanOp trace span
// per Open→Close lifetime (Arg = rows out).
type opNode struct {
	inner relational.Op
	name  string
	hints relational.Hints
	kids  []*opNode
	ctx   context.Context

	rowsOut uint64
	tracer  *trace.Tracer
	job     uint64
	openAt  int64

	// openWall/elapsed measure the operator's open-to-close wall time for
	// EXPLAIN ANALYZE, independent of whether a tracer is attached.
	openWall time.Time
	elapsed  time.Duration
}

func (o *opNode) Open() {
	o.rowsOut = 0
	o.openWall = time.Now()
	o.openAt = o.tracer.Now()
	if o.hints.BuildRows > 0 {
		relational.OpenHinted(o.inner, o.hints)
	} else {
		o.inner.Open()
	}
}

func (o *opNode) Next() (relational.Tuple, bool) {
	if o.rowsOut%ctxCheckStride == 0 && o.ctx.Err() != nil {
		return nil, false
	}
	t, ok := o.inner.Next()
	if ok {
		o.rowsOut++
	}
	return t, ok
}

func (o *opNode) Close() {
	o.inner.Close()
	o.elapsed = time.Since(o.openWall)
	o.tracer.Span(0, trace.KindPlanOp, o.job, int64(o.rowsOut), o.openAt, o.tracer.Now()-o.openAt)
}

func (o *opNode) Columns() []string { return o.inner.Columns() }

// IterStats is the executor's account of one iterate node's ML job.
type IterStats struct {
	// Stats is the exec-pool account of the converged run.
	Stats exec.Stats
	// CommitTS is the uber-transaction's commit timestamp; the iterate
	// node's relational output is its table read at exactly this time.
	CommitTS storage.Timestamp
}

// Cursor streams one execution's result tuples. Tuples may alias operator
// buffers and are valid only until the next Next; Close releases the
// snapshot pins and flushes telemetry (it is safe to call twice).
type Cursor struct {
	p     *Prepared
	ctx   context.Context
	root  *opNode
	ops   []*opNode
	iters []IterStats

	start   time.Time
	startNs int64
	rows    uint64
	err     error
	closed  bool
}

// Execute runs the prepared plan: iterate nodes run their ML jobs to
// convergence first (each as one uber-transaction on the environment's
// pool), then the operator tree opens and the returned cursor streams the
// result. The caller must Close the cursor.
func (p *Prepared) Execute(ctx context.Context) (*Cursor, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	c := &Cursor{p: p, ctx: ctx, start: time.Now(), startNs: p.env.Tracer.Now()}
	if p.env.Obs != nil {
		p.env.Obs.Inc(0, obs.PlanQueries)
	}
	// Phase 1: converge every embedded ML job. Each pins its own snapshot
	// through the uber-transaction protocol; commits publish before any
	// relational operator opens, so the streaming phase reads converged
	// state.
	iterTS := map[*Node]storage.Timestamp{}
	if err := p.runIterates(ctx, p.root, iterTS, &c.iters); err != nil {
		return nil, err
	}
	// Phase 2: build the physical tree. The query snapshot is the stable
	// timestamp after the iterates committed; every table scan pins its
	// read timestamp in the manager's registry for its Open→Close
	// lifetime, so version GC cannot reclaim under the query.
	ts := p.env.Mgr.Stable()
	root, err := p.build(p.root, ts, iterTS, c)
	if err != nil {
		return nil, err
	}
	c.root = root
	root.Open()
	return c, nil
}

// Collect executes the plan and materializes the whole result.
func (p *Prepared) Collect(ctx context.Context) (*relational.Relation, error) {
	c, err := p.Execute(ctx)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	out := &relational.Relation{Cols: append([]string(nil), p.cols...)}
	for {
		t, ok := c.Next()
		if !ok {
			break
		}
		out.Rows = append(out.Rows, t.Clone())
	}
	return out, c.Err()
}

// Next returns the next result tuple; false at end of stream or on
// cancellation (check Err). A stream that ends after its context was
// cancelled reports the cancellation, never success: an operator cut short
// by the cancel may have produced a partial result.
func (c *Cursor) Next() (relational.Tuple, bool) {
	if c.closed || c.err != nil {
		return nil, false
	}
	t, ok := c.root.Next()
	if !ok {
		c.err = c.ctx.Err()
		return nil, false
	}
	c.rows++
	return t, true
}

// Err returns the error that terminated the stream early, if any
// (context cancellation or deadline).
func (c *Cursor) Err() error { return c.err }

// Columns returns the result column layout.
func (c *Cursor) Columns() []string { return c.p.cols }

// Rows returns the number of tuples emitted so far.
func (c *Cursor) Rows() uint64 { return c.rows }

// IterStats returns the executor accounts of the plan's iterate nodes, in
// plan order. Available immediately after Execute (iterates run eagerly).
func (c *Cursor) IterStats() []IterStats { return c.iters }

// Stats returns per-operator row counts, root first. Meaningful once the
// stream is drained or closed.
func (c *Cursor) Stats() []OpStat {
	out := make([]OpStat, 0, len(c.ops))
	for _, o := range c.ops {
		st := OpStat{Op: o.name, RowsOut: o.rowsOut}
		for _, k := range o.kids {
			st.RowsIn += k.rowsOut
		}
		out = append(out, st)
	}
	return out
}

// Close closes the operator tree (releasing every scan's snapshot pin) and
// flushes the query's telemetry: PlanRows, the query latency histogram,
// and the KindPlan span.
func (c *Cursor) Close() {
	if c.closed {
		return
	}
	c.closed = true
	c.root.Close()
	env := &c.p.env
	if env.Obs != nil {
		env.Obs.Add(0, obs.PlanRows, c.rows)
		env.Obs.RecordLatency(0, obs.QueryLatency, int64(time.Since(c.start)))
	}
	env.Tracer.Span(0, trace.KindPlan, env.Job, int64(c.rows), c.startNs, env.Tracer.Now()-c.startNs)
}

// runIterates converges every iterate node in the subtree (depth-first,
// plan order), recording each job's commit timestamp.
func (p *Prepared) runIterates(ctx context.Context, n *Node, iterTS map[*Node]storage.Timestamp, out *[]IterStats) error {
	for _, ch := range n.children {
		if err := p.runIterates(ctx, ch, iterTS, out); err != nil {
			return err
		}
	}
	if n.kind != kIterate {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	spec := n.iter
	r, err := exec.StartUber(exec.UberSpec{
		Isolation: spec.Isolation,
		Parts: []exec.UberPart{{
			Pool:   p.env.Pool,
			Mgr:    p.env.Mgr,
			Attach: []itx.Attachment{{Table: spec.Table, Versions: spec.Versions}},
			Build:  spec.Build,
			Job:    spec.Exec,
		}},
	})
	if err != nil {
		return err
	}
	stats, ts, err := r.Finish()
	if err != nil {
		return err
	}
	iterTS[n] = ts
	*out = append(*out, IterStats{Stats: stats, CommitTS: ts})
	return nil
}

// build lowers the rewritten logical tree onto the Volcano operators,
// wrapping every operator in the stats/trace decorator.
func (p *Prepared) build(n *Node, ts storage.Timestamp, iterTS map[*Node]storage.Timestamp, c *Cursor) (*opNode, error) {
	wrap := func(name string, inner relational.Op, buildRows int, kids ...*opNode) *opNode {
		o := &opNode{inner: inner, name: name, kids: kids, ctx: c.ctx, tracer: p.env.Tracer, job: p.env.Job}
		if buildRows > 0 && !p.env.NoPresize {
			o.hints = relational.Hints{BuildRows: buildRows}
		}
		c.ops = append(c.ops, o)
		return o
	}
	kids := make([]*opNode, len(n.children))
	for i, ch := range n.children {
		k, err := p.build(ch, ts, iterTS, c)
		if err != nil {
			return nil, err
		}
		kids[i] = k
	}
	cols := colMap(n.columns())
	switch n.kind {
	case kScan:
		var inner relational.Op
		name := "scan(" + n.tbl.Name() + ")"
		// The rewrite already honored NoPushdown: under it only RowRange
		// hints survive (see pushRanges).
		if n.hinted {
			inner = relational.NewTableScanHinted(p.env.Mgr, n.tbl, ts, n.hint)
			name += "+pushdown"
		} else {
			inner = relational.NewTableScan(p.env.Mgr, n.tbl, ts)
		}
		scan := wrap(name, inner, 0)
		if len(n.residual) == 0 {
			return scan, nil
		}
		pred, err := compileConj(n.residual, cols)
		if err != nil {
			return nil, err
		}
		return wrap("filter(residual)", relational.NewFilter(scan, pred), 0, scan), nil
	case kStatic:
		return wrap("static", relational.NewScan(n.rel), 0), nil
	case kFilter:
		pred, err := compileConj(n.preds, colMap(n.children[0].columns()))
		if err != nil {
			return nil, err
		}
		return wrap("filter", relational.NewFilter(kids[0], pred), 0, kids[0]), nil
	case kProject:
		exprs := make([]func(relational.Tuple) uint64, len(n.exprs))
		inCols := colMap(n.children[0].columns())
		for i, e := range n.exprs {
			f, err := e.compileWord(inCols)
			if err != nil {
				return nil, err
			}
			exprs[i] = f
		}
		return wrap("project", relational.NewProject(kids[0], n.cols, exprs), 0, kids[0]), nil
	case kJoin:
		pi := colMap(n.children[0].columns())[n.probeCol]
		bi := colMap(n.children[1].columns())[n.buildCol]
		probeKey := func(t relational.Tuple) int64 { return t.Int64(pi) }
		buildKey := func(t relational.Tuple) int64 { return t.Int64(bi) }
		var inner relational.Op
		name := "join"
		if n.outer {
			inner = relational.NewHashLeftJoin(kids[0], kids[1], probeKey, buildKey)
			name = "left-join"
		} else {
			inner = relational.NewHashJoin(kids[0], kids[1], probeKey, buildKey)
		}
		return wrap(name, inner, presizeOf(n.children[1]), kids[0], kids[1]), nil
	case kAgg:
		inCols := colMap(n.children[0].columns())
		gi := inCols[n.groupCol]
		key := func(t relational.Tuple) int64 { return t.Int64(gi) }
		var arg func(relational.Tuple) float64
		if n.aggKind == relational.Sum {
			f, err := n.aggArg.compileF(inCols)
			if err != nil {
				return nil, err
			}
			arg = f
		}
		inner := relational.NewHashAggregate(kids[0], n.aggKind, n.groupCol, n.outCol, key, arg)
		return wrap("aggregate", inner, presizeOf(n.children[0]), kids[0]), nil
	case kSort:
		si := colMap(n.children[0].columns())[n.sortCol]
		return wrap("sort", relational.NewSortByFloat(kids[0], si, n.desc), 0, kids[0]), nil
	case kLimit:
		return wrap("limit", relational.NewLimit(kids[0], n.limit), 0, kids[0]), nil
	case kIterate:
		cts, ok := iterTS[n]
		if !ok {
			return nil, fmt.Errorf("plan: iterate node was not converged before build")
		}
		inner := relational.NewTableScan(p.env.Mgr, n.iter.Table, cts)
		return wrap("iterate("+n.iter.Table.Name()+")", inner, 0), nil
	default:
		return nil, fmt.Errorf("plan: unknown node kind %v", n.kind)
	}
}

// presizeOf is the pre-sizing hint a buffering operator takes from the
// child it buffers: the child's cardinality estimate when exact, else 0
// (grow incrementally — see the exactness rationale on estimate()).
func presizeOf(n *Node) int {
	if !n.estExact {
		return 0
	}
	return n.est
}

// compileConj compiles a conjunction of predicates against one layout.
func compileConj(preds []Pred, cols map[string]int) (func(relational.Tuple) bool, error) {
	fns := make([]func(relational.Tuple) bool, len(preds))
	for i, p := range preds {
		f, err := p.compile(cols)
		if err != nil {
			return nil, err
		}
		fns[i] = f
	}
	if len(fns) == 1 {
		return fns[0], nil
	}
	return func(t relational.Tuple) bool {
		for _, f := range fns {
			if !f(t) {
				return false
			}
		}
		return true
	}, nil
}
