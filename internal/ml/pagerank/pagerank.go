// Package pagerank implements the paper's first use case (Section 6.1):
// PageRank as user-defined iterative transactions inside DB4ML. The graph
// lives in two ML-tables — Node(NodeID, PR) and Edge(NID_From, NID_To).
// The uber-transaction (Algorithm 1) spawns one iterative sub-transaction
// per node; each sub-transaction (Algorithm 2) caches its node's and
// neighbors' record handles in its tx_state and re-evaluates Equation (1)
// per iteration until its rank moves less than epsilon.
//
// Where get_neighbors probes a NID_To index per node, BuildSubs reads every
// in-neighbor list from one Edge scan and a counting sort; LoadTables still
// builds the index, but no job reads it.
package pagerank

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"db4ml/internal/exec"
	"db4ml/internal/graph"
	"db4ml/internal/isolation"
	"db4ml/internal/itx"
	"db4ml/internal/numa"
	"db4ml/internal/partition"
	"db4ml/internal/storage"
	"db4ml/internal/table"
	"db4ml/internal/txn"
)

// Column layout of the Node table.
const (
	ColNodeID = 0
	ColPR     = 1
)

// LoadTables loads g into fresh Node and Edge ML-tables, committed through
// the manager so they are immediately visible. Node RowIDs equal node ids
// (dense load); ranks are initialized to 1/N. Indexes: hash on Node.NodeID
// and on Edge.NID_To (the paper's access paths).
func LoadTables(mgr *txn.Manager, g *graph.Graph) (node, edge *table.Table, err error) {
	node = table.New("Node", table.MustSchema(
		table.Column{Name: "NodeID", Type: table.Int64},
		table.Column{Name: "PR", Type: table.Float64},
	))
	edge = table.New("Edge", table.MustSchema(
		table.Column{Name: "NID_From", Type: table.Int64},
		table.Column{Name: "NID_To", Type: table.Int64},
	))
	n := g.NumNodes()
	var loadErr error
	mgr.PublishAt(func(ts storage.Timestamp) {
		np := node.Schema().NewPayload()
		for v := 0; v < n; v++ {
			np.SetInt64(ColNodeID, int64(v))
			np.SetFloat64(ColPR, 1/float64(n))
			if _, err := node.Append(ts, np); err != nil {
				loadErr = err
				return
			}
		}
		ep := edge.Schema().NewPayload()
		for v := int32(0); int(v) < n; v++ {
			for _, to := range g.OutNeighbors(v) {
				ep.SetInt64(0, int64(v))
				ep.SetInt64(1, int64(to))
				if _, err := edge.Append(ts, ep); err != nil {
					loadErr = err
					return
				}
			}
		}
	})
	if loadErr != nil {
		return nil, nil, loadErr
	}
	if err := node.CreateHashIndex("NodeID"); err != nil {
		return nil, nil, err
	}
	if err := edge.CreateHashIndex("NID_To"); err != nil {
		return nil, nil, err
	}
	return node, edge, nil
}

// Config tunes one PageRank uber-transaction.
type Config struct {
	// Exec configures the job (batch size, MaxIterations cap, straggler
	// hook, telemetry); Run routes sub-transactions itself, so RegionOf is
	// ignored.
	Exec exec.JobConfig
	// Pool is the worker pool Run submits the job to; Run returns
	// exec.ErrNoPool without one. Its topology also drives BuildSubs' NUMA
	// partitioning; without a pool BuildSubs partitions for the default
	// topology, exec.Config{}.Resolved().Topology.
	Pool *exec.Pool
	// Isolation selects the ML isolation level. PageRank is single-writer
	// per tuple, so SingleWriterHint is forced on unless Versions
	// overrides the storage layout.
	Isolation isolation.Options
	// Damping defaults to 0.85 (the paper's choice).
	Damping float64
	// Epsilon is the per-node convergence threshold; defaults to 1e-9.
	// With Exec.MaxIterations set, epsilon may be 0 to run a fixed
	// number of iterations (Figures 9 and 10).
	Epsilon float64
	// Versions, when nonzero, overrides the number of snapshot slots per
	// iterative record (Figure 11 scales it 1–64). Zero uses the
	// isolation level's default.
	Versions int
	// ExecuteNanos, when non-nil, accumulates the wall-clock nanoseconds
	// spent inside Execute — the pure PageRank computation — so the
	// transaction-machinery share of a run can be derived (Figure 10(a)).
	ExecuteNanos *atomic.Int64
	// Partition selects how nodes map to NUMA regions; the default is
	// Range, the scheme the paper's baselines use.
	Partition partition.Scheme
	// Traffic, when non-nil, accounts the NUMA locality of every
	// (node, in-neighbor) access pair under the chosen partitioning —
	// each pair is dereferenced once per iteration, so the counter is the
	// per-iteration local/remote access profile.
	Traffic *numa.Traffic
}

// Result is the outcome of one PageRank run.
type Result struct {
	// Ranks holds the final PageRank per node id.
	Ranks []float64
	// Stats is the executor's account of the run.
	Stats exec.Stats
	// CommitTS is the uber-transaction's commit timestamp T_TE.
	CommitTS storage.Timestamp
}

// sub is the iterative sub-transaction of Algorithm 2. Fields are its
// tx_state: the node's own record handle, the neighbors' handles (cached
// once in Begin) and out-degrees, all windows of per-job arrays, and the
// current/previous rank.
type sub struct {
	slots   []*storage.VersionChain // the Node table's rows, shared by the job
	row     table.RowID
	inRows  []table.RowID
	outDegs []float64

	myRec *storage.IterativeRecord
	nRecs []*storage.IterativeRecord

	pr, oldPR     float64
	base, damping float64
	epsilon       float64
	buf           storage.Payload
	profile       *atomic.Int64
}

func (s *sub) Begin(ctx *itx.Ctx) {
	s.myRec = s.slots[s.row].Head().Iter()
	for i, r := range s.inRows {
		s.nRecs[i] = s.slots[r].Head().Iter()
	}
	s.pr = 0
	s.oldPR = 0
	s.buf.SetInt64(ColNodeID, int64(s.row))
}

func (s *sub) Execute(ctx *itx.Ctx) {
	var t0 time.Time
	if s.profile != nil {
		t0 = time.Now()
		defer func() { s.profile.Add(int64(time.Since(t0))) }()
	}
	sum := 0.0
	for i, rec := range s.nRecs {
		sum += math.Float64frombits(ctx.ReadCol(rec, ColPR)) / s.outDegs[i]
	}
	s.oldPR = s.pr
	s.pr = s.base + s.damping*sum
	s.buf.SetFloat64(ColPR, s.pr)
	ctx.Write(s.myRec, s.buf)
}

func (s *sub) Validate(ctx *itx.Ctx) itx.Action {
	if d := s.pr - s.oldPR; d <= s.epsilon && d >= -s.epsilon && ctx.Iteration() > 0 {
		return itx.Done
	}
	return itx.Commit
}

// Normalized applies the config defaults Run applies before executing:
// damping/epsilon, the single-writer hint, and Galois-matching global
// convergence under the synchronous level. Exported so the plan layer's
// iterate node and Run resolve the exact same effective configuration.
func (c Config) Normalized() Config {
	if c.Damping == 0 {
		c.Damping = 0.85
	}
	if c.Epsilon == 0 && c.Exec.MaxIterations == 0 {
		c.Epsilon = 1e-9
	}
	// PageRank updates each tuple from exactly one sub-transaction.
	if c.Versions == 0 {
		c.Isolation.SingleWriterHint = true
	}
	// Under the synchronous level, match Galois' global convergence: a
	// node's rank can move again after a quiet round while its upstream
	// still changes, so nodes retire together at the global fixpoint
	// (Section 7.2.1: "designed ... to match Galois convergence criteria
	// and thus results in the same ranking and PageRank values").
	if c.Isolation.Level == isolation.Synchronous {
		c.Exec.ConvergeTogether = true
	}
	return c
}

// BuildSubs constructs the per-node iterative sub-transactions of
// Algorithm 1 at snapshot ts — out-degrees, in-neighbor handles, NUMA
// partitioning — returning the subs plus the job's region router
// (JobConfig.RegionOf). cfg must already be Normalized. It is exported so
// the plan layer's iterate node runs the byte-identical body Run would,
// which is what makes "PageRank as a plan node matches direct submission
// exactly" checkable rather than approximate. In-neighbors come in edge-row
// order, as from a NID_To probe; an edge naming no Node row is an error.
func BuildSubs(node, edge *table.Table, ts storage.Timestamp, cfg Config) ([]itx.Sub, func(int) int, error) {
	slots := node.Slots()
	n := len(slots)
	// Partition nodes across NUMA regions (range partitioning, like the
	// baselines) and route each sub-transaction to its region's queue.
	topo := exec.Config{}.Resolved().Topology
	if cfg.Pool != nil {
		topo = cfg.Pool.Topology()
	}
	node.SetPartitioner(partition.New(cfg.Partition, topo.Regions, uint64(n)))

	// One scan at the uber-transaction's snapshot counts out-degrees and
	// in-degrees (into off[to+2]) and keeps the visible (from, to) pairs.
	fromCol, toCol := edge.Schema().MustCol("NID_From"), edge.Schema().MustCol("NID_To")
	outDeg := make([]float64, n)
	off := make([]int, n+2)
	pairs := make([]table.RowID, 0, 2*edge.NumRows())
	var err error
	edge.Scan(ts, func(r table.RowID, p storage.Payload) bool {
		from, to := p.Int64(fromCol), p.Int64(toCol)
		if from < 0 || from >= int64(n) || to < 0 || to >= int64(n) {
			err = fmt.Errorf("pagerank: edge row %d (%d -> %d) names a node outside the %d-row Node table", r, from, to, n)
			return false
		}
		outDeg[from]++
		off[to+2]++
		pairs = append(pairs, table.RowID(from), table.RowID(to))
		return true
	})
	if err != nil {
		return nil, nil, err
	}
	// Counting sort into one CSR: off[v+1] starts as node v's list start and
	// placing advances it to v's end, leaving off[v] at v's start.
	for v := 2; v < len(off); v++ {
		off[v] += off[v-1]
	}
	inRows := make([]table.RowID, len(pairs)/2)
	degs := make([]float64, len(inRows))
	for i := 0; i < len(pairs); i += 2 {
		k := &off[pairs[i+1]+1]
		inRows[*k], degs[*k] = pairs[i], outDeg[pairs[i]]
		*k++
	}

	nRecs := make([]*storage.IterativeRecord, len(inRows))
	bufs := make(storage.Payload, 2*n)
	slab := make([]sub, n)
	subs := make([]itx.Sub, n)
	for v := range slab {
		lo, hi := off[v], off[v+1]
		if cfg.Traffic != nil {
			own := node.PartitionOf(table.RowID(v))
			for _, nb := range inRows[lo:hi] {
				cfg.Traffic.Record(own, node.PartitionOf(nb))
			}
		}
		slab[v] = sub{
			slots: slots, row: table.RowID(v),
			inRows: inRows[lo:hi:hi], outDegs: degs[lo:hi:hi], nRecs: nRecs[lo:hi:hi],
			base: (1 - cfg.Damping) / float64(n), damping: cfg.Damping, epsilon: cfg.Epsilon,
			buf: bufs[2*v : 2*v+2 : 2*v+2], profile: cfg.ExecuteNanos,
		}
		subs[v] = &slab[v]
	}
	return subs, func(i int) int { return node.PartitionOf(table.RowID(i)) }, nil
}

// Run executes PageRank as one uber-transaction over the loaded tables and
// commits the result, making it globally visible. Node RowIDs must equal
// node ids (as produced by LoadTables).
func Run(mgr *txn.Manager, node, edge *table.Table, cfg Config) (Result, error) {
	cfg = cfg.Normalized()
	r, err := exec.StartUber(exec.UberSpec{
		Isolation: cfg.Isolation,
		Parts: []exec.UberPart{{
			Pool:   cfg.Pool,
			Mgr:    mgr,
			Attach: []itx.Attachment{{Table: node, Versions: cfg.Versions}},
			Build: func(ts storage.Timestamp) ([]itx.Sub, func(int) int, error) {
				return BuildSubs(node, edge, ts, cfg)
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
	ranks := make([]float64, node.NumRows())
	for v := range ranks {
		p, ok := node.Read(table.RowID(v), ts)
		if !ok {
			return Result{}, fmt.Errorf("pagerank: row %d unreadable after commit", v)
		}
		ranks[v] = p.Float64(ColPR)
	}
	return Result{Ranks: ranks, Stats: stats, CommitTS: ts}, nil
}
