// PageRank as a user-defined ML algorithm in DB4ML (the paper's first use
// case, Section 6.1), written against the public API: a Node and an Edge
// ML-table, one iterative sub-transaction per node evaluating Equation (1)
// per iteration, and an uber-transaction (db.RunML) that publishes the
// converged ranks atomically. The result is validated against a
// sequential reference implementation.
package main

import (
	"fmt"
	"log"
	"math"
	"sort"

	"db4ml"
	"db4ml/internal/graph"
	"db4ml/internal/storage"
)

const (
	colNodeID = 0
	colPR     = 1
	damping   = 0.85
	epsilon   = 1e-10
)

// prSub computes one node's PageRank per iteration (Algorithm 2 of the
// paper). Its tx_state caches the node's own record handle, the
// in-neighbors' handles, and their out-degrees.
type prSub struct {
	nodeTbl *db4ml.Table
	row     db4ml.RowID
	inRows  []db4ml.RowID
	outDegs []float64
	base    float64

	myRec     *storage.IterativeRecord
	neighbors []*storage.IterativeRecord
	pr, oldPR float64
	buf       db4ml.Payload
}

func (s *prSub) Begin(ctx *db4ml.Ctx) {
	s.myRec = s.nodeTbl.IterRecord(s.row)
	s.neighbors = make([]*storage.IterativeRecord, len(s.inRows))
	for i, r := range s.inRows {
		s.neighbors[i] = s.nodeTbl.IterRecord(r)
	}
	s.buf = make(db4ml.Payload, 2)
	s.buf.SetInt64(colNodeID, int64(s.row))
}

func (s *prSub) Execute(ctx *db4ml.Ctx) {
	sum := 0.0
	for i, rec := range s.neighbors {
		sum += math.Float64frombits(ctx.ReadCol(rec, colPR)) / s.outDegs[i]
	}
	s.oldPR = s.pr
	s.pr = s.base + damping*sum
	s.buf.SetFloat64(colPR, s.pr)
	ctx.Write(s.myRec, s.buf)
}

func (s *prSub) Validate(ctx *db4ml.Ctx) db4ml.Action {
	if d := s.pr - s.oldPR; d < epsilon && d > -epsilon && ctx.Iteration() > 0 {
		return db4ml.Done
	}
	return db4ml.Commit
}

func main() {
	// A small scale-free graph standing in for a web/social graph.
	g := graph.BarabasiAlbert(2000, 8, 42)
	db := db4ml.Open(db4ml.WithWorkers(4))
	defer db.Close()

	node, err := db.CreateTable("Node",
		db4ml.Column{Name: "NodeID", Type: db4ml.Int64},
		db4ml.Column{Name: "PR", Type: db4ml.Float64})
	if err != nil {
		log.Fatal(err)
	}
	edge, err := db.CreateTable("Edge",
		db4ml.Column{Name: "NID_From", Type: db4ml.Int64},
		db4ml.Column{Name: "NID_To", Type: db4ml.Int64})
	if err != nil {
		log.Fatal(err)
	}

	n := g.NumNodes()
	nodeRows := make([]db4ml.Payload, n)
	for v := 0; v < n; v++ {
		p := node.Schema().NewPayload()
		p.SetInt64(colNodeID, int64(v))
		p.SetFloat64(colPR, 1/float64(n))
		nodeRows[v] = p
	}
	if err := db.BulkLoad(node, nodeRows); err != nil {
		log.Fatal(err)
	}
	var edgeRows []db4ml.Payload
	for v := int32(0); int(v) < n; v++ {
		for _, to := range g.OutNeighbors(v) {
			p := edge.Schema().NewPayload()
			p.SetInt64(0, int64(v))
			p.SetInt64(1, int64(to))
			edgeRows = append(edgeRows, p)
		}
	}
	if err := db.BulkLoad(edge, edgeRows); err != nil {
		log.Fatal(err)
	}

	// Build one sub-transaction per node; the in-neighbor lists come
	// straight from the graph here (the engine-internal implementation
	// builds them from one scan of the Edge table instead).
	subs := make([]db4ml.IterativeTransaction, n)
	for v := 0; v < n; v++ {
		ins := g.InNeighbors(int32(v))
		inRows := make([]db4ml.RowID, len(ins))
		degs := make([]float64, len(ins))
		for i, u := range ins {
			inRows[i] = db4ml.RowID(u)
			degs[i] = float64(g.OutDegree(u))
		}
		subs[v] = &prSub{
			nodeTbl: node, row: db4ml.RowID(v),
			inRows: inRows, outDegs: degs,
			base: (1 - damping) / float64(n),
		}
	}

	observer := db4ml.NewObserver()
	stats, err := db.RunML(db4ml.MLRun{
		Isolation: db4ml.MLOptions{Level: db4ml.Synchronous},
		Attach:    []db4ml.Attachment{{Table: node}},
		Subs:      subs,
		// PageRank needs Galois-style global convergence: a node's rank
		// can move again after a quiet round while upstream still changes.
		ConvergeTogether: true,
		Observer:         observer,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("PageRank converged: %d rounds, %d commits, %v\n",
		stats.Rounds, stats.Commits, stats.Elapsed.Round(1000))

	// The observer saw the whole run: print how many sub-transactions were
	// still live after each round (the engine's convergence curve).
	snap := observer.Snapshot()
	fmt.Print("live sub-transactions per round:")
	for _, s := range snap.Convergence {
		fmt.Printf(" %d", s.Live)
	}
	fmt.Printf("\nworkers %d, executions %d, commit rate %.1f%%\n",
		snap.Workers, snap.Counters.Executions,
		100*float64(snap.Counters.Commits)/float64(snap.Counters.Executions))

	// Read the committed ranks back through a normal transaction and
	// compare with the sequential reference.
	tx := db.Begin()
	ranks := make([]float64, n)
	for v := 0; v < n; v++ {
		p, _ := tx.Read(node, db4ml.RowID(v))
		ranks[v] = p.Float64(colPR)
	}
	ref, _ := graph.PageRankRef(g, damping, 1e-12, 500)
	maxDiff := 0.0
	for v := range ranks {
		if d := math.Abs(ranks[v] - ref[v]); d > maxDiff {
			maxDiff = d
		}
	}
	fmt.Printf("max |DB4ML - reference| = %.2e\n", maxDiff)

	type ranked struct {
		id int
		pr float64
	}
	top := make([]ranked, n)
	for v := range ranks {
		top[v] = ranked{v, ranks[v]}
	}
	sort.Slice(top, func(i, j int) bool { return top[i].pr > top[j].pr })
	fmt.Println("top 10 nodes:")
	for _, r := range top[:10] {
		fmt.Printf("  node %4d  pr %.6f\n", r.id, r.pr)
	}
}
