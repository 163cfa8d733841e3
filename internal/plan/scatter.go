package plan

import (
	"context"
	"fmt"

	"db4ml/internal/relational"
	"db4ml/internal/table"
)

// This file adds scatter-gather execution for sharded tables. A sharded
// query runs in two stages:
//
//   - Scatter: the plan's shard-safe pipeline (scans, filters, projects)
//     is cloned once per shard, every scan rebound to that shard's LOCAL
//     table, and executed under that shard's own Env — each fragment pins
//     its snapshot in its own shard's manager, which is the only sound
//     cross-shard read protocol: a row's visibility is defined by its
//     owner's stable watermark (and GC safe point), never by a global one.
//   - Gather: stages that need the whole result (aggregate, sort, limit,
//     and anything stacked above them) are peeled off the top of the plan
//     before scattering and re-applied once over the concatenated fragment
//     results, via a Static node — so the gather stage reuses the same
//     operator implementations, pushdown exclusions, and validation as any
//     other plan.
//
// Joins, iterate nodes, and Static inputs cannot be scattered (a join's
// build side would need replication, an iterate body is an ML job with its
// own distributed path), and RowRange predicates are rejected because row
// ids are shard-local after rebinding.

// kindName names a node kind in errors.
func kindName(k kind) string {
	switch k {
	case kScan:
		return "scan"
	case kStatic:
		return "static"
	case kFilter:
		return "filter"
	case kProject:
		return "project"
	case kJoin:
		return "join"
	case kAgg:
		return "aggregate"
	case kSort:
		return "sort"
	case kLimit:
		return "limit"
	case kIterate:
		return "iterate"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// scatterable reports whether n can run as a per-shard fragment: only
// scans, filters, and projects, with no RowRange predicates.
func scatterable(n *Node) error {
	switch n.kind {
	case kScan:
		return nil
	case kFilter:
		for _, p := range n.preds {
			if p.isRange {
				return fmt.Errorf("plan: RowRange cannot run on a sharded table (row ids are shard-local)")
			}
		}
	case kProject:
	default:
		return fmt.Errorf("plan: %s node cannot run as a per-shard fragment", kindName(n.kind))
	}
	for _, c := range n.children {
		if err := scatterable(c); err != nil {
			return err
		}
	}
	return nil
}

// rebindScans replaces every scan's table with its shard-local binding.
func rebindScans(n *Node, shard int, rebind func(*table.Table, int) *table.Table) error {
	if n.kind == kScan {
		local := rebind(n.tbl, shard)
		if local == nil {
			return fmt.Errorf("plan: scan of table %s: no shard-%d binding", n.tbl.Name(), shard)
		}
		n.tbl = local
	}
	for _, c := range n.children {
		if err := rebindScans(c, shard, rebind); err != nil {
			return err
		}
	}
	return nil
}

// splitScatter peels gather-side stages off the top of n until the
// remainder is a shard-safe fragment, returning that fragment and the peeled
// stages (peeled[0] is the outermost). It fails when no such split exists.
func splitScatter(n *Node) (frag *Node, peeled []*Node, err error) {
	for scatterable(n) != nil {
		switch n.kind {
		case kLimit, kSort, kAgg, kFilter, kProject:
			if n.kind == kFilter {
				// A RowRange filter can neither scatter nor gather — row ids
				// are shard-local, and the gather input is not a table scan.
				for _, p := range n.preds {
					if p.isRange {
						return nil, nil, fmt.Errorf("plan: RowRange cannot run on a sharded table (row ids are shard-local)")
					}
				}
			}
			peeled = append(peeled, n)
			n = n.children[0]
		default:
			// The offending node is not a peelable stage; surface the
			// fragment error, which names it.
			return nil, nil, scatterable(n)
		}
	}
	return n, peeled, nil
}

// CheckScatter reports why root cannot run scatter-gather — a join, an
// iterate node, a static input, or a RowRange predicate — or nil when it
// can. It is the shape check ScatterGather starts with, exposed so a
// sharded submission can refuse a plan before admitting it.
func CheckScatter(root *Node) error {
	if root == nil {
		return fmt.Errorf("plan: nil root")
	}
	_, _, err := splitScatter(root)
	return err
}

// ScatterGather executes root across shards: envs holds one Env per shard
// (each with that shard's manager — fragment snapshots pin per shard), and
// rebind maps a scanned table to its shard-local counterpart (nil = the
// table is not sharded, an error). The result is the same relation the
// plan would produce over the union of the shards' rows; output order for
// plans without a sort is fragment-concatenation order (shard 0's rows
// first), not global row order.
func ScatterGather(ctx context.Context, root *Node, envs []Env,
	rebind func(tbl *table.Table, shard int) *table.Table) (*relational.Relation, error) {
	if root == nil {
		return nil, fmt.Errorf("plan: nil root")
	}
	if len(envs) == 0 {
		return nil, fmt.Errorf("plan: scatter over zero shards")
	}

	cur, peeled, err := splitScatter(root.clone())
	if err != nil {
		return nil, err
	}

	// Scatter: one fragment per shard, each prepared (pushdown and all)
	// and collected under its own shard's Env.
	var merged *relational.Relation
	for i := range envs {
		frag := cur.clone()
		if err := rebindScans(frag, i, rebind); err != nil {
			return nil, err
		}
		p, err := Prepare(frag, envs[i])
		if err != nil {
			return nil, fmt.Errorf("plan: shard %d fragment: %w", i, err)
		}
		rel, err := p.Collect(ctx)
		if err != nil {
			return nil, fmt.Errorf("plan: shard %d fragment: %w", i, err)
		}
		if merged == nil {
			merged = &relational.Relation{Cols: rel.Cols}
		}
		merged.Rows = append(merged.Rows, rel.Rows...)
	}

	if len(peeled) == 0 {
		return merged, nil
	}
	// Gather: re-apply the peeled stages, innermost first, over the merged
	// fragment output.
	gn := Static(merged)
	for i := len(peeled) - 1; i >= 0; i-- {
		stage := *peeled[i]
		stage.children = []*Node{gn}
		gn = &stage
	}
	gp, err := Prepare(gn, envs[0])
	if err != nil {
		return nil, fmt.Errorf("plan: gather stage: %w", err)
	}
	return gp.Collect(ctx)
}
