package main

import (
	"fmt"
	"io"
	"math"
	"time"

	"db4ml"
	"db4ml/internal/baselines/galois"
	"db4ml/internal/exec"
	"db4ml/internal/graph"
	"db4ml/internal/ml/pagerank"
	"db4ml/internal/storage"
)

const (
	prIters   = 20 // fixed iterations per job: constant work whatever the ranks are
	prDamping = 0.85
)

// prInst is one PageRank workload instance: sync or async, on one kernel or
// two shards.
type prInst struct {
	mlSpec
	g      *graph.Graph
	async  bool
	shards int
	tmp    string

	t    *mlTarget
	pool *exec.Pool // the traced single-kernel op's own 2-worker pool

	ranks []float64 // last read-back
	// Oracles. Successive jobs continue from the committed ranks, so the
	// synchronous reference advances prIters Jacobi steps per op.
	ref, scratch []float64
	fix          []float64 // async: the fixpoint
	first        []float64 // sharded: the warm-up op's ranks, for the bit-equality check
}

func prWorkload(name string, async bool, shards int, gen func(seed int64, sz sizes) *graph.Graph) workload {
	return workload{name: name, unit: "sub-transaction", setup: func(seed int64, sz sizes, tmp string) (instance, error) {
		p := &prInst{g: gen(seed, sz), async: async, shards: shards, tmp: tmp}
		level := db4ml.Synchronous
		if async {
			level = db4ml.Asynchronous
			p.batch = 1
		}
		// Epsilon -1 never votes Done: every job runs exactly prIters
		// iterations, so op time does not depend on how converged the
		// committed ranks already are.
		cfg := pagerank.Config{Isolation: db4ml.MLOptions{Level: level}, Epsilon: -1}
		cfg.Exec.MaxIterations = prIters
		cfg = cfg.Normalized()
		p.iso, p.maxIter, p.converge = cfg.Isolation, prIters, cfg.Exec.ConvergeTogether
		p.units = float64(p.g.NumNodes()) * prIters
		p.load = func(k kernel) (*mlTarget, error) { return p.loadGraph(k, cfg) }

		n := p.g.NumNodes()
		p.ranks = make([]float64, n)
		p.ref, p.scratch = make([]float64, n), make([]float64, n)
		for v := range p.ref {
			p.ref[v] = 1 / float64(n)
		}
		if async {
			p.fix, _ = graph.PageRankRef(p.g, prDamping, 1e-12, 300)
		}

		open := openKernel(0, db4ml.WithWorkers(2))
		if shards > 0 {
			open = openKernel(shards, db4ml.WithWorkers(1)) // 2 busy goroutines in total
		}
		var err error
		if p.t, err = p.load(open); err != nil {
			open.Close()
			return nil, err
		}
		// Warm-up. The asynchronous job needs three to get within the
		// oracle's tolerance of the fixpoint from the uniform start.
		warm := 1
		if async {
			warm = 3
		}
		for i := 0; i < warm; i++ {
			err := p.op()
			if err == nil && (!async || i == warm-1) {
				err = p.verify()
			}
			if err != nil {
				p.close()
				return nil, err
			}
		}
		if !async {
			// Tie the incremental reference to the repo's own oracle once.
			want, _ := graph.PageRankRef(p.g, prDamping, -1, prIters)
			if d := maxAbsDiff(p.ref, want); d > 1e-12 {
				p.close()
				return nil, fmt.Errorf("bench reference drifts from graph.PageRankRef by %g", d)
			}
			p.first = append([]float64(nil), p.ranks...)
		}
		return p, nil
	}}
}

// loadGraph loads the graph the way pagerank.LoadTables does, but through
// the facade (so WAL and shards see it): Node(NodeID, PR = 1/N),
// Edge(NID_From, NID_To), hash indexes on Node.NodeID and Edge.NID_To.
func (p *prInst) loadGraph(k kernel, cfg pagerank.Config) (*mlTarget, error) {
	node, err := k.CreateTable("Node",
		db4ml.Column{Name: "NodeID", Type: db4ml.Int64}, db4ml.Column{Name: "PR", Type: db4ml.Float64})
	if err != nil {
		return nil, err
	}
	edge, err := k.CreateTable("Edge",
		db4ml.Column{Name: "NID_From", Type: db4ml.Int64}, db4ml.Column{Name: "NID_To", Type: db4ml.Int64})
	if err != nil {
		return nil, err
	}
	n := p.g.NumNodes()
	nodeRows := make([]db4ml.Payload, n)
	for v := range nodeRows {
		nodeRows[v] = db4ml.Payload{uint64(v), math.Float64bits(1 / float64(n))}
	}
	edgeRows := make([]db4ml.Payload, 0, p.g.NumEdges())
	for v := int32(0); int(v) < n; v++ {
		for _, to := range p.g.OutNeighbors(v) {
			edgeRows = append(edgeRows, db4ml.Payload{uint64(v), uint64(to)})
		}
	}
	if err := k.BulkLoad(node, nodeRows); err != nil {
		return nil, err
	}
	if err := k.BulkLoad(edge, edgeRows); err != nil {
		return nil, err
	}
	if err := node.CreateHashIndex("NodeID"); err != nil {
		return nil, err
	}
	if err := edge.CreateHashIndex("NID_To"); err != nil {
		return nil, err
	}
	return &mlTarget{
		k: k, attach: node,
		build: func(ts db4ml.Timestamp) ([]db4ml.IterativeTransaction, func(int) int, error) {
			return pagerank.BuildSubs(node, edge, ts, cfg)
		},
		read: func(ts db4ml.Timestamp) error {
			for v := range p.ranks {
				r, ok := node.Read(db4ml.RowID(v), ts)
				if !ok {
					return fmt.Errorf("node %d unreadable at commit timestamp %d", v, ts)
				}
				p.ranks[v] = r.Float64(pagerank.ColPR)
			}
			return nil
		},
	}, nil
}

func (p *prInst) unitsPerOp() float64 { return p.units }
func (p *prInst) burst() int          { return 1 }
func (p *prInst) baselineReps() int   { return 4 }
func (p *prInst) op() error           { return p.run(p.t) }

func (p *prInst) native() string {
	if p.shards > 0 {
		return fmt.Sprintf("shard%d", p.shards)
	}
	return "db4ml"
}

func (p *prInst) baseline() (time.Duration, error) { return timeOf(p.galois) }

// galois is Galois' pull PageRank on the plain CSR arrays, same graph, same
// iteration count, same two workers: the baseline and the raw rung.
func (p *prInst) galois() error {
	_, iters := galois.PageRank(p.g, galois.Config{Workers: 2, Damping: prDamping, Epsilon: -1, MaxIters: prIters})
	if iters != prIters {
		return fmt.Errorf("galois ran %d iterations, want %d", iters, prIters)
	}
	return nil
}

// jacobi advances ranks by iters pull iterations of Equation (1), exactly
// as graph.PageRankRef computes them.
func (p *prInst) jacobi(iters int) {
	g, n := p.g, p.g.NumNodes()
	base := (1 - prDamping) / float64(n)
	cur, next := p.ref, p.scratch
	for it := 0; it < iters; it++ {
		for v := int32(0); int(v) < n; v++ {
			sum := 0.0
			for _, u := range g.InNeighbors(v) {
				sum += cur[u] / float64(g.OutDegree(u))
			}
			next[v] = base + prDamping*sum
		}
		cur, next = next, cur
	}
	p.ref, p.scratch = cur, next
}

func maxAbsDiff(a, b []float64) float64 {
	worst := 0.0
	for i := range a {
		worst = math.Max(worst, math.Abs(a[i]-b[i]))
	}
	return worst
}

// verify checks the last op's committed ranks: synchronous jobs against the
// sequential reference at the same cumulative iteration (1e-9), async jobs
// against the fixpoint (1e-3 in L1).
func (p *prInst) verify() error {
	defer p.t.k.PruneNow()
	if p.async {
		l1 := 0.0
		for v, r := range p.ranks {
			l1 += math.Abs(r - p.fix[v])
		}
		if l1 > 1e-3 {
			return fmt.Errorf("async ranks are %g from the fixpoint in L1 (> 1e-3)", l1)
		}
		return nil
	}
	p.jacobi(prIters)
	if d := maxAbsDiff(p.ranks, p.ref); d > 1e-9 {
		return fmt.Errorf("sync ranks differ from the sequential reference by %g (> 1e-9)", d)
	}
	return nil
}

// finish, on the sharded workload, reruns the first job on a single kernel
// and demands bit-equal ranks: the cluster must be the same computation.
func (p *prInst) finish() error {
	if p.shards == 0 || p.async {
		return nil
	}
	t, err := p.load(openKernel(0, db4ml.WithWorkers(2)))
	if err != nil {
		return err
	}
	defer t.k.Close()
	if err := p.run(t); err != nil {
		return err
	}
	for v, r := range p.ranks {
		if r != p.first[v] {
			return fmt.Errorf("node %d: %d-shard rank %.17g is not bit-equal to the single-kernel rank %.17g", v, p.shards, p.first[v], r)
		}
	}
	return nil
}

func (p *prInst) close() {
	if p.pool != nil {
		p.pool.Close()
	}
	p.t.k.Close()
}

func (p *prInst) traced(tr *tracer) error {
	if p.shards > 0 {
		return p.runFacadeTraced(p.t, tr)
	}
	if p.pool == nil {
		var err error
		if p.pool, err = exec.NewPool(exec.Config{Workers: 2}); err != nil {
			return err
		}
	}
	return p.runByHand(p.t, p.pool, tr)
}

func (p *prInst) rungs() []rung { return p.mlSpec.rungs(p.galois, p.storageLoop(1), p.tmp) }

// storageLoop is the storage rung: a single-goroutine pull loop over
// iterative records — the same neighbour-handle lists a sub-transaction
// caches, the same relaxed column loads and installs its Ctx ends up
// issuing, and nothing else. With versions > 1 it takes the seqlock path
// instead (Install / ReadVersion of the previous iteration).
func (p *prInst) storageLoop(versions int) func() error {
	return func() error {
		g, n := p.g, p.g.NumNodes()
		recs := storage.NewIterativeRecordBatch(n, 2, versions, func(i int) storage.Payload {
			r := make(storage.Payload, 2)
			r.SetInt64(pagerank.ColNodeID, int64(i))
			r.SetFloat64(pagerank.ColPR, 1/float64(n))
			return r
		})
		nbrs := make([][]*storage.IterativeRecord, n)
		degs := make([][]float64, n)
		for v := int32(0); int(v) < n; v++ {
			in := g.InNeighbors(v)
			nbrs[v] = make([]*storage.IterativeRecord, len(in))
			degs[v] = make([]float64, len(in))
			for i, u := range in {
				nbrs[v][i], degs[v][i] = recs[u], float64(g.OutDegree(u))
			}
		}
		base := (1 - prDamping) / float64(n)
		next := make([]float64, n)
		buf, in := make(storage.Payload, 2), make(storage.Payload, 2)
		install := func(v int, pr float64) {
			buf.SetInt64(pagerank.ColNodeID, int64(v))
			buf.SetFloat64(pagerank.ColPR, pr)
			if versions > 1 {
				recs[v].Install(buf)
			} else {
				recs[v].InstallRelaxed(buf)
			}
		}
		for it := uint64(0); it < prIters; it++ {
			for v := 0; v < n; v++ {
				sum := 0.0
				for i, rec := range nbrs[v] {
					if versions > 1 {
						if !rec.ReadVersion(it, in) {
							return fmt.Errorf("node %d: snapshot of iteration %d already overwritten", v, it)
						}
						sum += in.Float64(pagerank.ColPR) / degs[v][i]
					} else {
						sum += math.Float64frombits(rec.LoadRelaxed(pagerank.ColPR)) / degs[v][i]
					}
				}
				if p.async {
					install(v, base+prDamping*sum)
				} else {
					next[v] = base + prDamping*sum
				}
			}
			if !p.async {
				for v, pr := range next {
					install(v, pr)
				}
			}
		}
		sink += recs[0].LoadRelaxed(pagerank.ColPR)
		return nil
	}
}

// detail prices the multi-version storage variant beside the
// single-version one the ladder uses (synchronous inputs only: the async
// loop reads the newest value, which ReadVersion cannot name).
func (p *prInst) detail(w io.Writer) error {
	if p.async {
		return nil
	}
	for _, versions := range []int{1, 2} {
		rr, err := measureRung(rung{"storage", func() (func() error, func(), error) {
			return p.storageLoop(versions), func() {}, nil
		}}, p.units, 0)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  storage rung with %d version slot(s): %.2f ns_per_unit, %.4f allocs_per_unit\n",
			versions, rr.nsPerUnit, rr.allocsPerUnit)
	}
	return nil
}
