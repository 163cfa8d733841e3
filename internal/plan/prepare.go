package plan

import (
	"fmt"

	"db4ml/internal/exec"
	"db4ml/internal/obs"
	"db4ml/internal/relational"
	"db4ml/internal/trace"
	"db4ml/internal/txn"
)

// Env is everything a prepared plan needs from the engine to execute.
type Env struct {
	// Mgr is required: table scans pin their snapshot in its registry and
	// iterate nodes begin their uber-transaction through it.
	Mgr *txn.Manager
	// Pool runs iterate bodies as jobs; a plan with an iterate node fails
	// with exec.ErrNoPool without one.
	Pool *exec.Pool
	// Obs, when non-nil, receives PlanQueries/PlanRows counters and the
	// query latency histogram.
	Obs *obs.Observer
	// Tracer, when non-nil, receives one KindPlan span per execution and
	// one KindPlanOp span per operator Open→Close.
	Tracer *trace.Tracer
	// Job tags this query's trace spans (the facade's query id).
	Job uint64

	// NoPushdown disables predicate pushdown: filters stay where the plan
	// put them and scans run unhinted. For baseline comparisons.
	NoPushdown bool
	// NoPresize disables hash build pre-sizing hints. For baseline
	// comparisons.
	NoPresize bool
}

// Prepared is a validated, rewritten plan, ready to Execute any number of
// times. It is not safe for concurrent Executes (operator state is reused).
type Prepared struct {
	env  Env
	root *Node
	cols []string
}

// Prepare validates the plan, applies the rewrite rules (filter merge,
// predicate pushdown toward and into scans, cardinality-based pre-sizing
// hints), and returns the executable form. The input tree is not modified.
func Prepare(root *Node, env Env) (*Prepared, error) {
	if root == nil {
		return nil, fmt.Errorf("plan: nil root")
	}
	if env.Mgr == nil {
		return nil, fmt.Errorf("plan: Env.Mgr is required")
	}
	n := root.clone()
	n = mergeFilters(n)
	var err error
	if env.NoPushdown {
		// RowRange is a semantic scan parameter, not an optimization: it
		// must reach its scan even when predicate pushdown is disabled.
		n, err = pushRanges(n)
	} else {
		n, err = pushdown(n)
	}
	if err != nil {
		return nil, err
	}
	if err := check(n); err != nil {
		return nil, err
	}
	estimate(n)
	return &Prepared{env: env, root: n, cols: append([]string(nil), n.columns()...)}, nil
}

// Columns returns the result column layout.
func (p *Prepared) Columns() []string { return p.cols }

// mergeFilters collapses adjacent filter nodes into one conjunction, so
// pushdown sees every conjunct at once.
func mergeFilters(n *Node) *Node {
	for i, c := range n.children {
		n.children[i] = mergeFilters(c)
	}
	if n.kind == kFilter && n.children[0].kind == kFilter {
		child := n.children[0]
		n.preds = append(n.preds, child.preds...)
		n.children[0] = child.children[0]
	}
	return n
}

// pushdown moves pushable conjuncts toward their owning scan and compiles
// what arrives at a scan into its storage-level ScanHint. It returns the
// rewritten node (a filter that pushed everything disappears).
func pushdown(n *Node) (*Node, error) {
	for i, c := range n.children {
		nc, err := pushdown(c)
		if err != nil {
			return nil, err
		}
		n.children[i] = nc
	}
	if n.kind != kFilter {
		return n, nil
	}
	child := n.children[0]
	var keep []Pred
	switch child.kind {
	case kScan:
		absorbScan(child, n.preds)
		keep = nil
	case kJoin:
		probeCols := colMap(child.children[0].columns())
		buildCols := colMap(child.children[1].columns())
		var toProbe, toBuild []Pred
		for _, p := range n.preds {
			if !p.pushable() {
				keep = append(keep, p)
				continue
			}
			_, inProbe := probeCols[p.col]
			_, inBuild := buildCols[p.col]
			switch {
			case inProbe && !inBuild:
				toProbe = append(toProbe, p)
			case inBuild && !inProbe && !child.outer:
				// Under a left-outer join a build-side predicate is NOT
				// equivalent pushed down: it would turn unmatched-probe
				// rows (which pushdown preserves) into matched-with-zeros
				// rows or vice versa, so it stays above the join.
				toBuild = append(toBuild, p)
			default:
				keep = append(keep, p)
			}
		}
		var err error
		if len(toProbe) > 0 {
			child.children[0], err = pushdown(Filter(child.children[0], toProbe...))
			if err != nil {
				return nil, err
			}
		}
		if len(toBuild) > 0 {
			child.children[1], err = pushdown(Filter(child.children[1], toBuild...))
			if err != nil {
				return nil, err
			}
		}
	case kSort:
		// Filtering commutes with ordering; push the whole filter below.
		inner, err := pushdown(Filter(child.children[0], n.preds...))
		if err != nil {
			return nil, err
		}
		child.children[0] = inner
		keep = nil
	default:
		// Static, project, aggregate, limit, iterate: the filter stays.
		// (Limit must not: filtering below a limit changes which rows the
		// limit keeps. Project/aggregate renames make ownership ambiguous;
		// iterate output is only known post-commit.)
		keep = n.preds
	}
	if len(keep) == 0 {
		return child, nil
	}
	n.preds = keep
	return n, nil
}

// pushRanges is the NoPushdown-mode rewrite: it moves only RowRange
// conjuncts into their scans (through sorts, like pushdown does) and
// leaves every other predicate exactly where the plan put it.
func pushRanges(n *Node) (*Node, error) {
	for i, c := range n.children {
		nc, err := pushRanges(c)
		if err != nil {
			return nil, err
		}
		n.children[i] = nc
	}
	if n.kind != kFilter {
		return n, nil
	}
	var ranges, rest []Pred
	for _, p := range n.preds {
		if p.isRange {
			ranges = append(ranges, p)
		} else {
			rest = append(rest, p)
		}
	}
	if len(ranges) == 0 {
		return n, nil
	}
	child := n.children[0]
	switch child.kind {
	case kScan:
		absorbScan(child, ranges)
	case kSort:
		inner, err := pushRanges(Filter(child.children[0], ranges...))
		if err != nil {
			return nil, err
		}
		child.children[0] = inner
	default:
		// No scan to land on from here; keep the ranges so check() reports
		// the same error the pushdown path would.
		rest = n.preds
	}
	if len(rest) == 0 {
		return child, nil
	}
	n.preds = rest
	return n, nil
}

// absorbScan folds conjuncts into the scan's ScanHint: every RowRange
// tightens [Lo, Hi); single-column tests on one chosen column (the first
// seen) AND into the hint's word test; everything else becomes the scan's
// residual filter, applied just above the storage layer.
func absorbScan(s *Node, preds []Pred) {
	cols := colMap(s.columns())
	for _, p := range preds {
		switch {
		case p.isRange:
			if p.lo > s.hint.Lo {
				s.hint.Lo = p.lo
			}
			if p.hi != 0 && (s.hint.Hi == 0 || p.hi < s.hint.Hi) {
				s.hint.Hi = p.hi
			}
			s.hinted = true
		case p.pushable():
			ci, ok := cols[p.col]
			if !ok {
				s.residual = append(s.residual, p) // caught by check()
				continue
			}
			if s.hint.Test == nil {
				s.hint.Col, s.hint.Test = ci, p.test
				s.hinted = true
			} else if s.hint.Col == ci {
				prev, next := s.hint.Test, p.test
				s.hint.Test = func(w uint64) bool { return prev(w) && next(w) }
			} else {
				// One hint column per scan; extra columns filter above.
				s.residual = append(s.residual, p)
			}
		default:
			s.residual = append(s.residual, p)
		}
	}
}

// check validates the rewritten tree: every referenced column resolves,
// every RowRange reached a scan, aggregate/sort/join columns exist.
func check(n *Node) error {
	for _, c := range n.children {
		if err := check(c); err != nil {
			return err
		}
	}
	switch n.kind {
	case kScan:
		cols := colMap(n.columns())
		for _, p := range n.residual {
			if _, err := p.compile(cols); err != nil {
				return err
			}
		}
	case kFilter:
		cols := colMap(n.children[0].columns())
		for _, p := range n.preds {
			if _, err := p.compile(cols); err != nil {
				return err
			}
		}
	case kProject:
		cols := colMap(n.children[0].columns())
		for _, e := range n.exprs {
			if _, err := e.compileWord(cols); err != nil {
				return err
			}
		}
	case kJoin:
		if _, ok := colMap(n.children[0].columns())[n.probeCol]; !ok {
			return fmt.Errorf("plan: join probe column %q not in probe side", n.probeCol)
		}
		if _, ok := colMap(n.children[1].columns())[n.buildCol]; !ok {
			return fmt.Errorf("plan: join build column %q not in build side", n.buildCol)
		}
	case kAgg:
		cols := colMap(n.children[0].columns())
		if _, ok := cols[n.groupCol]; !ok {
			return fmt.Errorf("plan: aggregate group column %q not in input", n.groupCol)
		}
		// Count ignores its argument; Sum's expression must compile.
		if n.aggKind == relational.Sum {
			if _, err := n.aggArg.compileF(cols); err != nil {
				return err
			}
		}
	case kSort:
		if _, ok := colMap(n.children[0].columns())[n.sortCol]; !ok {
			return fmt.Errorf("plan: sort column %q not in input", n.sortCol)
		}
	case kIterate:
		if n.iter.Table == nil || n.iter.Build == nil {
			return fmt.Errorf("plan: iterate needs Table and Build")
		}
	}
	return nil
}

// estimate annotates every node with an output-cardinality upper bound —
// the planner's input to hash build pre-sizing — and whether that bound is
// exact. Only exact estimates turn into pre-sizing hints: a hash table
// over-sized from a loose upper bound (a pushed word-test's selectivity is
// unknown, a filter's survivors are unknown) pays more in allocation than
// the incremental growth it avoids, while an exact pre-size (an unfiltered
// or range-bounded scan, a static relation) skips every rehash for free.
func estimate(n *Node) int {
	for _, c := range n.children {
		estimate(c)
	}
	switch n.kind {
	case kScan:
		n.est = n.tbl.RowsInRange(n.hint)
		// A row-id range alone counts exactly; a pushed word test or a
		// residual predicate makes the count an upper bound.
		n.estExact = n.hint.Test == nil && len(n.residual) == 0
	case kStatic:
		n.est = len(n.rel.Rows)
		n.estExact = true
	case kJoin:
		n.est = n.children[0].est
	case kLimit:
		n.est = n.limit
		if c := n.children[0].est; c < n.est {
			n.est = c
		}
		n.estExact = n.children[0].estExact
	case kIterate:
		n.est = n.iter.Table.NumRows()
		n.estExact = true
	case kProject, kSort:
		// Row-preserving: pass the child's estimate and its exactness.
		n.est = n.children[0].est
		n.estExact = n.children[0].estExact
	default: // filter, aggregate: bounded by the input, never exact
		n.est = n.children[0].est
	}
	return n.est
}
