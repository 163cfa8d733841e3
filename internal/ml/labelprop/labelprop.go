// Package labelprop implements connected components via min-label
// propagation as user-defined iterative transactions — a fourth use case
// exercising the synchronous isolation level's converge-together barrier:
// a node whose label is momentarily stable must keep iterating, because a
// smaller label can still arrive through a long path. Per-node retirement
// (the default of Algorithm 2) would freeze labels too early; PageRank has
// the same structure, which is exactly why DB4ML's synchronous level
// matches Galois' global convergence (Section 7.2.1).
//
// Data model: a Node(NodeID, Label) ML-table over an undirected view of
// the graph (labels flow along both edge directions).
package labelprop

import (
	"fmt"
	"math"

	"db4ml/internal/exec"
	"db4ml/internal/graph"
	"db4ml/internal/isolation"
	"db4ml/internal/itx"
	"db4ml/internal/storage"
	"db4ml/internal/table"
	"db4ml/internal/txn"
)

// Node table column layout.
const (
	ColNodeID = 0
	ColLabel  = 1
)

// LoadTable loads the nodes with Label = NodeID.
func LoadTable(mgr *txn.Manager, g *graph.Graph) (*table.Table, error) {
	tbl := table.New("Node", table.MustSchema(
		table.Column{Name: "NodeID", Type: table.Int64},
		table.Column{Name: "Label", Type: table.Int64},
	))
	var loadErr error
	mgr.PublishAt(func(ts storage.Timestamp) {
		p := tbl.Schema().NewPayload()
		for v := 0; v < g.NumNodes(); v++ {
			p.SetInt64(ColNodeID, int64(v))
			p.SetInt64(ColLabel, int64(v))
			if _, err := tbl.Append(ts, p); err != nil {
				loadErr = err
				return
			}
		}
	})
	if loadErr != nil {
		return nil, loadErr
	}
	return tbl, nil
}

// Config tunes one components run.
type Config struct {
	// Exec configures the job (batch size, caps, deadline, telemetry).
	Exec exec.JobConfig
	// Pool is the worker pool Run submits the job to; Run returns
	// exec.ErrNoPool without one.
	Pool *exec.Pool
	// Isolation level; Synchronous (default) gives the exact component
	// labeling. Asynchronous usually converges too (min is monotone) and
	// is faster, but per-node retirement can freeze a label early on
	// adversarial schedules.
	Isolation isolation.Options
}

// Result of a components run.
type Result struct {
	// Labels holds the component label per node: the minimum node id
	// reachable in the undirected graph.
	Labels []int64
	// Components is the number of distinct labels.
	Components int
	Stats      exec.Stats
	CommitTS   storage.Timestamp
}

// sub propagates the minimum label over one node's undirected
// neighborhood.
type sub struct {
	row      table.RowID
	rec      *storage.IterativeRecord
	nbrs     []*storage.IterativeRecord
	cur, old int64
	buf      storage.Payload
}

func (s *sub) Begin(ctx *itx.Ctx) {
	s.cur = int64(s.row)
	s.buf = make(storage.Payload, 2)
	s.buf.SetInt64(ColNodeID, int64(s.row))
}

func (s *sub) Execute(ctx *itx.Ctx) {
	minLabel := int64(math.MaxInt64)
	for _, rec := range s.nbrs {
		if l := int64(ctx.ReadCol(rec, ColLabel)); l < minLabel {
			minLabel = l
		}
	}
	if own := int64(ctx.ReadCol(s.rec, ColLabel)); own < minLabel {
		minLabel = own
	}
	s.old = s.cur
	s.cur = minLabel
	s.buf.SetInt64(ColLabel, minLabel)
	ctx.Write(s.rec, s.buf)
}

func (s *sub) Validate(ctx *itx.Ctx) itx.Action {
	if s.cur == s.old && ctx.Iteration() > 0 {
		return itx.Done
	}
	return itx.Commit
}

// buildSubs makes one sub per node of g, resolving the iterative records
// of the node and its undirected neighborhood (out- plus in-neighbors) on
// the attached tbl. A node or neighbor without a record in tbl is an error
// naming it.
func buildSubs(tbl *table.Table, g *graph.Graph) ([]itx.Sub, error) {
	n := g.NumNodes()
	slab := make([]sub, n)
	subs := make([]itx.Sub, n)
	for v := range slab {
		rec := tbl.IterRecord(table.RowID(v))
		if rec == nil {
			return nil, fmt.Errorf("labelprop: node %d has no row in table %s", v, tbl.Name())
		}
		outs, ins := g.OutNeighbors(int32(v)), g.InNeighbors(int32(v))
		nbrs := make([]*storage.IterativeRecord, 0, len(outs)+len(ins))
		for _, list := range [][]int32{outs, ins} {
			for _, u := range list {
				nrec := tbl.IterRecord(table.RowID(u))
				if nrec == nil {
					return nil, fmt.Errorf("labelprop: node %d's neighbor %d has no row in table %s", v, u, tbl.Name())
				}
				nbrs = append(nbrs, nrec)
			}
		}
		slab[v] = sub{row: table.RowID(v), rec: rec, nbrs: nbrs}
		subs[v] = &slab[v]
	}
	return subs, nil
}

// Run computes connected components of g's undirected view as one
// uber-transaction and commits the labels.
func Run(mgr *txn.Manager, tbl *table.Table, g *graph.Graph, cfg Config) (Result, error) {
	if cfg.Isolation.Level == isolation.Synchronous {
		cfg.Exec.ConvergeTogether = true
	}
	r, err := exec.StartUber(exec.UberSpec{
		Isolation: cfg.Isolation,
		Parts: []exec.UberPart{{
			Pool:   cfg.Pool,
			Mgr:    mgr,
			Attach: []itx.Attachment{{Table: tbl}},
			Build: func(storage.Timestamp) ([]itx.Sub, func(int) int, error) {
				subs, err := buildSubs(tbl, g)
				return subs, nil, err
			},
			Job: cfg.Exec,
		}},
	})
	if err != nil {
		return Result{}, err
	}
	stats, ts, err := r.Finish()
	if err != nil {
		return Result{}, err
	}
	n := g.NumNodes()
	res := Result{Stats: stats, CommitTS: ts, Labels: make([]int64, n)}
	seen := make(map[int64]bool)
	for v := 0; v < n; v++ {
		p, ok := tbl.Read(table.RowID(v), ts)
		if !ok {
			return Result{}, fmt.Errorf("labelprop: row %d unreadable after commit", v)
		}
		res.Labels[v] = p.Int64(ColLabel)
		seen[res.Labels[v]] = true
	}
	res.Components = len(seen)
	return res, nil
}

// RefComponents computes the exact component labeling (minimum reachable
// node id, undirected) with a union-find, for validating the iterative
// engine.
func RefComponents(g *graph.Graph) []int64 {
	n := g.NumNodes()
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = int32(i)
	}
	var find func(int32) int32
	find = func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int32) {
		ra, rb := find(a), find(b)
		if ra != rb {
			if ra < rb {
				parent[rb] = ra
			} else {
				parent[ra] = rb
			}
		}
	}
	for v := int32(0); int(v) < n; v++ {
		for _, u := range g.OutNeighbors(v) {
			union(v, u)
		}
	}
	out := make([]int64, n)
	// Roots chosen by union-by-min above are not guaranteed minimal after
	// path compression ordering; normalize by min per root.
	minOf := make(map[int32]int64, n)
	for v := 0; v < n; v++ {
		r := find(int32(v))
		if cur, ok := minOf[r]; !ok || int64(v) < cur {
			minOf[r] = int64(v)
		}
	}
	for v := 0; v < n; v++ {
		out[v] = minOf[find(int32(v))]
	}
	return out
}
