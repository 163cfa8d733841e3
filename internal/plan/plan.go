// Package plan is the kernel's declarative query front door: a logical
// plan representation (scan / filter / project / join / aggregate / sort /
// limit / iterate-until-converged), a small rule-based planner, and a
// streaming executor over the Volcano operators of internal/relational.
//
// Queries are built as a tree of Node values and run in two steps —
// Prepare(root, env) validates and rewrites the tree, Execute(ctx) streams
// the result — replacing the hand-wired, fully-materialized operator
// pipelines of the MADlib baseline. The planner applies two optimizations:
//
//   - Predicate pushdown. Filter conjuncts are pushed through joins and
//     sorts toward their owning table scan and compiled into a
//     table.ScanHint (row-id range plus one single-column word test), so
//     rows a filter would discard are rejected inside the storage layer
//     against the in-place version payload and never materialized at all.
//   - Hash build pre-sizing. Bottom-up cardinality estimates pre-size the
//     hash-join build table and the hash-aggregate accumulator map, so the
//     blocking Open phases allocate once instead of growing by rehash.
//
// The iterate node embeds an ML job — an uber-transaction run on the
// internal/exec pool, snapshot-pinned per the itx protocol, convergence
// decided by the sub-transactions' Validate — directly in a relational
// plan, so PageRank and a top-k query over its result are one plan with
// one execution path (Jankov et al., "Declarative Recursive Computation
// on an RDBMS", make the case that this composition is what a relational
// kernel owes its ML workloads).
package plan

import (
	"fmt"
	"math"

	"db4ml/internal/exec"
	"db4ml/internal/isolation"
	"db4ml/internal/itx"
	"db4ml/internal/relational"
	"db4ml/internal/storage"
	"db4ml/internal/table"
)

type kind int

const (
	kScan kind = iota
	kStatic
	kFilter
	kProject
	kJoin
	kAgg
	kSort
	kLimit
	kIterate
)

// Node is one logical plan node. Build trees with the constructor
// functions (Scan, Filter, Join, ...); a Node is immutable once built —
// Prepare rewrites a private copy, so one tree may be prepared many times
// under different environments.
type Node struct {
	kind     kind
	children []*Node

	// scan
	tbl      *table.Table
	hint     table.ScanHint // planner-compiled pushdown, see rewrite
	hinted   bool
	residual []Pred // pushed-to-scan conjuncts the hint could not absorb

	// static
	rel *relational.Relation

	// filter
	preds []Pred

	// project
	cols  []string
	exprs []Scalar

	// join
	outer              bool
	probeCol, buildCol string

	// aggregate
	aggKind  relational.AggKind
	groupCol string
	outCol   string
	aggArg   Scalar

	// sort
	sortCol string
	desc    bool

	// limit
	limit int

	// iterate
	iter *IterateSpec

	// planner annotations: estimated output cardinality (upper bound) and
	// whether that estimate is exact. Only exact estimates become hash
	// pre-sizing hints — over-sizing from a loose upper bound costs more
	// in allocation than the rehashes it avoids.
	est      int
	estExact bool
}

// Scan reads every row of tbl visible at the query's snapshot. Filters
// above a scan are candidates for pushdown into the storage layer.
func Scan(tbl *table.Table) *Node { return &Node{kind: kScan, tbl: tbl} }

// Static reads a pre-materialized relation — the bridge for driver-side
// state (e.g. a parameter relation) into a plan.
func Static(rel *relational.Relation) *Node { return &Node{kind: kStatic, rel: rel} }

// Filter keeps only tuples satisfying the conjunction of preds.
func Filter(child *Node, preds ...Pred) *Node {
	return &Node{kind: kFilter, children: []*Node{child}, preds: preds}
}

// Project computes each named output column with the paired expression.
func Project(child *Node, cols []string, exprs ...Scalar) *Node {
	if len(cols) != len(exprs) {
		panic("plan: Project columns/exprs mismatch")
	}
	return &Node{kind: kProject, children: []*Node{child}, cols: cols, exprs: exprs}
}

// Join is an inner equi-join on int64 columns: probe.probeCol =
// build.buildCol. The build side is hashed on Open (pre-sized by the
// planner); output columns are probe's followed by build's.
func Join(probe, build *Node, probeCol, buildCol string) *Node {
	return &Node{kind: kJoin, children: []*Node{probe, build}, probeCol: probeCol, buildCol: buildCol}
}

// LeftJoin is the left-outer variant of Join: every probe tuple is emitted
// at least once, with zeroed build columns when unmatched.
func LeftJoin(probe, build *Node, probeCol, buildCol string) *Node {
	n := Join(probe, build, probeCol, buildCol)
	n.outer = true
	return n
}

// Aggregate groups by the int64 column groupCol and aggregates arg with
// agg, emitting (groupCol, outCol) in ascending group order. arg is
// ignored for relational.Count and may be the zero Scalar.
func Aggregate(child *Node, agg relational.AggKind, groupCol, outCol string, arg Scalar) *Node {
	return &Node{kind: kAgg, children: []*Node{child}, aggKind: agg, groupCol: groupCol, outCol: outCol, aggArg: arg}
}

// SortBy orders by the float64 column col (descending when desc); the
// child is materialized on Open.
func SortBy(child *Node, col string, desc bool) *Node {
	return &Node{kind: kSort, children: []*Node{child}, sortCol: col, desc: desc}
}

// Limit truncates the stream after n tuples.
func Limit(child *Node, n int) *Node {
	return &Node{kind: kLimit, children: []*Node{child}, limit: n}
}

// IterateSpec describes the body of an Iterate node: an ML job run as one
// uber-transaction on the executor pool. Table is both the state the
// iteration updates (attached to the uber-transaction with Versions
// snapshot slots) and the node's relational output — after the job
// converges and commits, the node scans Table at the job's own commit
// timestamp, so downstream operators see exactly the converged state.
type IterateSpec struct {
	// Table is the attached ML-table the iteration updates.
	Table *table.Table
	// Versions overrides the snapshot slots per iterative record; 0 uses
	// the isolation level's default.
	Versions int
	// Isolation selects the ML isolation level for the job.
	Isolation isolation.Options
	// Exec configures the job (batch size, iteration caps, ...); a region
	// router returned by Build replaces its RegionOf.
	Exec exec.JobConfig
	// Build constructs the sub-transactions at the uber-transaction's
	// snapshot, returning the subs and the job's region router.
	// The convergence predicate lives inside the subs' Validate, exactly
	// as in a directly submitted job (e.g. pagerank.BuildSubs).
	Build func(ts storage.Timestamp) ([]itx.Sub, func(int) int, error)
}

// Iterate embeds an iterate-until-converged ML job in the plan. The
// executor runs spec's uber-transaction to convergence on the shared pool
// before streaming begins, then the node reads spec.Table at the commit
// timestamp.
func Iterate(spec IterateSpec) *Node {
	s := spec
	return &Node{kind: kIterate, iter: &s}
}

// CmpOp is a comparison operator for the typed single-column predicates.
type CmpOp int

// Comparison operators.
const (
	Eq CmpOp = iota
	Ne
	Lt
	Le
	Gt
	Ge
)

// Pred is one filter conjunct. Single-column predicates (IntCmp, FloatCmp,
// ColTest) are pushable: the planner moves them through joins and sorts by
// column ownership and compiles them into the scan's storage-level hint.
// TuplePred is the opaque escape hatch and never moves. RowRange restricts
// the scanned row ids and is only legal where it can reach a table scan.
type Pred struct {
	col  string
	test func(word uint64) bool

	tuple func(relational.Tuple) bool

	lo, hi  table.RowID
	isRange bool

	desc string
}

func cmpInt(op CmpOp, v int64) func(uint64) bool {
	switch op {
	case Eq:
		return func(w uint64) bool { return int64(w) == v }
	case Ne:
		return func(w uint64) bool { return int64(w) != v }
	case Lt:
		return func(w uint64) bool { return int64(w) < v }
	case Le:
		return func(w uint64) bool { return int64(w) <= v }
	case Gt:
		return func(w uint64) bool { return int64(w) > v }
	default:
		return func(w uint64) bool { return int64(w) >= v }
	}
}

func cmpFloat(op CmpOp, v float64) func(uint64) bool {
	switch op {
	case Eq:
		return func(w uint64) bool { return math.Float64frombits(w) == v }
	case Ne:
		return func(w uint64) bool { return math.Float64frombits(w) != v }
	case Lt:
		return func(w uint64) bool { return math.Float64frombits(w) < v }
	case Le:
		return func(w uint64) bool { return math.Float64frombits(w) <= v }
	case Gt:
		return func(w uint64) bool { return math.Float64frombits(w) > v }
	default:
		return func(w uint64) bool { return math.Float64frombits(w) >= v }
	}
}

// IntCmp compares the int64 column col against v.
func IntCmp(col string, op CmpOp, v int64) Pred {
	return Pred{col: col, test: cmpInt(op, v), desc: fmt.Sprintf("%s int%v%d", col, op, v)}
}

// FloatCmp compares the float64 column col against v.
func FloatCmp(col string, op CmpOp, v float64) Pred {
	return Pred{col: col, test: cmpFloat(op, v), desc: fmt.Sprintf("%s float%v%g", col, op, v)}
}

// ColTest applies an arbitrary word-level test to one column — still
// pushable, since it names the single column it reads.
func ColTest(col string, test func(word uint64) bool) Pred {
	return Pred{col: col, test: test, desc: col + " test"}
}

// TuplePred applies an arbitrary predicate to the whole tuple, in the
// column layout of the filter's child. It is opaque to the planner and is
// never pushed.
func TuplePred(fn func(relational.Tuple) bool) Pred {
	return Pred{tuple: fn, desc: "tuple-pred"}
}

// RowRange restricts a scan to row ids in the half-open range [lo, hi);
// hi == 0 means "through the last row". Prepare rejects a RowRange whose
// filter cannot push it down to a table scan.
func RowRange(lo, hi table.RowID) Pred {
	return Pred{isRange: true, lo: lo, hi: hi, desc: fmt.Sprintf("rows [%d,%d)", lo, hi)}
}

func (p Pred) pushable() bool { return p.col != "" && p.test != nil }

// compile resolves p against a column layout into a tuple predicate.
func (p Pred) compile(cols map[string]int) (func(relational.Tuple) bool, error) {
	if p.tuple != nil {
		return p.tuple, nil
	}
	if p.pushable() {
		i, ok := cols[p.col]
		if !ok {
			return nil, fmt.Errorf("plan: predicate %q references unknown column %q", p.desc, p.col)
		}
		test := p.test
		return func(t relational.Tuple) bool { return test(t[i]) }, nil
	}
	return nil, fmt.Errorf("plan: predicate %q is not evaluable here (RowRange must reach a table scan)", p.desc)
}

type sKind int

const (
	sCol sKind = iota
	sConst
	sBin
)

// Scalar is a small expression tree for Project columns and Aggregate
// arguments: column references, float constants, and arithmetic. A column
// referenced alone passes its raw 64-bit word through (preserving int64
// columns bit-exactly); inside arithmetic it is read as float64.
type Scalar struct {
	kind     sKind
	col      string
	val      float64
	op       byte
	lhs, rhs *Scalar
}

// Col references a column by name.
func Col(name string) Scalar { return Scalar{kind: sCol, col: name} }

// Const is a float64 literal.
func Const(v float64) Scalar { return Scalar{kind: sConst, val: v} }

func bin(op byte, a, b Scalar) Scalar {
	l, r := a, b
	return Scalar{kind: sBin, op: op, lhs: &l, rhs: &r}
}

// Add is a + b over float64 values.
func Add(a, b Scalar) Scalar { return bin('+', a, b) }

// Sub is a - b over float64 values.
func Sub(a, b Scalar) Scalar { return bin('-', a, b) }

// Mul is a * b over float64 values.
func Mul(a, b Scalar) Scalar { return bin('*', a, b) }

// Div is a / b over float64 values.
func Div(a, b Scalar) Scalar { return bin('/', a, b) }

// compileF resolves s into a float64 evaluator.
func (s Scalar) compileF(cols map[string]int) (func(relational.Tuple) float64, error) {
	switch s.kind {
	case sCol:
		i, ok := cols[s.col]
		if !ok {
			return nil, fmt.Errorf("plan: expression references unknown column %q", s.col)
		}
		return func(t relational.Tuple) float64 { return t.Float64(i) }, nil
	case sConst:
		v := s.val
		return func(relational.Tuple) float64 { return v }, nil
	default:
		lf, err := s.lhs.compileF(cols)
		if err != nil {
			return nil, err
		}
		rf, err := s.rhs.compileF(cols)
		if err != nil {
			return nil, err
		}
		switch s.op {
		case '+':
			return func(t relational.Tuple) float64 { return lf(t) + rf(t) }, nil
		case '-':
			return func(t relational.Tuple) float64 { return lf(t) - rf(t) }, nil
		case '*':
			return func(t relational.Tuple) float64 { return lf(t) * rf(t) }, nil
		default:
			return func(t relational.Tuple) float64 { return lf(t) / rf(t) }, nil
		}
	}
}

// compileWord resolves s into a raw-word evaluator: bare columns pass
// their word through; computed expressions bit-cast their float64 result.
func (s Scalar) compileWord(cols map[string]int) (func(relational.Tuple) uint64, error) {
	if s.kind == sCol {
		i, ok := cols[s.col]
		if !ok {
			return nil, fmt.Errorf("plan: expression references unknown column %q", s.col)
		}
		return func(t relational.Tuple) uint64 { return t[i] }, nil
	}
	f, err := s.compileF(cols)
	if err != nil {
		return nil, err
	}
	return func(t relational.Tuple) uint64 { return math.Float64bits(f(t)) }, nil
}

// colMap indexes a column layout by name; duplicate names keep the first
// occurrence, matching relational.Relation.ColIndex.
func colMap(cols []string) map[string]int {
	m := make(map[string]int, len(cols))
	for i, c := range cols {
		if _, dup := m[c]; !dup {
			m[c] = i
		}
	}
	return m
}

// columns computes a node's output column layout.
func (n *Node) columns() []string {
	switch n.kind {
	case kScan:
		cols := make([]string, n.tbl.Schema().Width())
		for i, c := range n.tbl.Schema().Columns() {
			cols[i] = c.Name
		}
		return cols
	case kStatic:
		return n.rel.Cols
	case kProject:
		return n.cols
	case kJoin:
		cols := append([]string(nil), n.children[0].columns()...)
		return append(cols, n.children[1].columns()...)
	case kAgg:
		return []string{n.groupCol, n.outCol}
	case kIterate:
		cols := make([]string, n.iter.Table.Schema().Width())
		for i, c := range n.iter.Table.Schema().Columns() {
			cols[i] = c.Name
		}
		return cols
	default: // filter, sort, limit pass the child layout through
		return n.children[0].columns()
	}
}

func (n *Node) clone() *Node {
	c := *n
	c.children = make([]*Node, len(n.children))
	for i, ch := range n.children {
		c.children[i] = ch.clone()
	}
	c.preds = append([]Pred(nil), n.preds...)
	c.residual = append([]Pred(nil), n.residual...)
	return &c
}
