package db4ml_test

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (each delegates to the experiment runner in quick mode; run
// `go run ./cmd/db4ml-bench -exp <id>` for the full-scale version and the
// printed paper-style tables), plus ablation benchmarks for the design
// choices called out in DESIGN.md §5 and micro-benchmarks of the hot
// storage and scheduling primitives.

import (
	"db4ml"

	"io"
	"testing"

	"db4ml/internal/exec"
	"db4ml/internal/experiments"
	"db4ml/internal/graph"
	"db4ml/internal/isolation"
	"db4ml/internal/itx"
	"db4ml/internal/ml/pagerank"
	"db4ml/internal/obs"
	"db4ml/internal/queue"
	"db4ml/internal/storage"
	"db4ml/internal/trace"
	"db4ml/internal/txn"
)

func quickOpts() experiments.Options {
	return experiments.Options{Out: io.Discard, Quick: true, Runs: 1, MaxWorkers: 4}
}

func benchExperiment(b *testing.B, fn func(experiments.Options) error) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if err := fn(quickOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- One benchmark per paper table/figure -------------------------------

func BenchmarkFig1PageRankEngines(b *testing.B)     { benchExperiment(b, experiments.Fig1) }
func BenchmarkTable1Datasets(b *testing.B)          { benchExperiment(b, experiments.Table1) }
func BenchmarkFig8PageRankScalability(b *testing.B) { benchExperiment(b, experiments.Fig8) }
func BenchmarkFig9IsolationLevels(b *testing.B)     { benchExperiment(b, experiments.Fig9) }
func BenchmarkFig10aTxnOverhead(b *testing.B)       { benchExperiment(b, experiments.Fig10a) }
func BenchmarkFig10bBatchSizes(b *testing.B)        { benchExperiment(b, experiments.Fig10b) }
func BenchmarkFig11VersionOverhead(b *testing.B)    { benchExperiment(b, experiments.Fig11) }
func BenchmarkTable2Datasets(b *testing.B)          { benchExperiment(b, experiments.Table2) }
func BenchmarkFig12SGDEngines(b *testing.B)         { benchExperiment(b, experiments.Fig12) }
func BenchmarkFig13SGDScalability(b *testing.B)     { benchExperiment(b, experiments.Fig13) }
func BenchmarkFig14SGDMicroArch(b *testing.B)       { benchExperiment(b, experiments.Fig14) }

// --- Ablations (DESIGN.md §5) --------------------------------------------

func benchGraph() *graph.Graph { return graph.BarabasiAlbert(1500, 12, 99) }

// benchPool starts a worker pool that is closed when the benchmark ends.
func benchPool(b *testing.B, cfg exec.Config) *exec.Pool {
	b.Helper()
	p, err := exec.NewPool(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(p.Close)
	return p
}

func runPR(b *testing.B, cfg pagerank.Config, g *graph.Graph) {
	b.Helper()
	mgr := txn.NewManager()
	node, edge, err := pagerank.LoadTables(mgr, g)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := pagerank.Run(mgr, node, edge, cfg); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkAblationSingleVersionHint compares bounded-staleness PageRank
// with the single-writer hint (one version slot, relaxed installs) against
// the general multi-version seqlock storage (Section 5.1).
func BenchmarkAblationSingleVersionHint(b *testing.B) {
	g := benchGraph()
	b.Run("hint-single-version", func(b *testing.B) {
		pool := benchPool(b, exec.Config{Workers: 4})
		for i := 0; i < b.N; i++ {
			runPR(b, pagerank.Config{
				Exec:      exec.JobConfig{MaxIterations: 10},
				Pool:      pool,
				Isolation: isolation.Options{Level: isolation.BoundedStaleness, Staleness: 8},
				Epsilon:   -1,
			}, g)
		}
	})
	b.Run("general-multi-version", func(b *testing.B) {
		pool := benchPool(b, exec.Config{Workers: 4})
		for i := 0; i < b.N; i++ {
			runPR(b, pagerank.Config{
				Exec:      exec.JobConfig{MaxIterations: 10},
				Pool:      pool,
				Isolation: isolation.Options{Level: isolation.BoundedStaleness, Staleness: 8},
				Epsilon:   -1,
				Versions:  10,
			}, g)
		}
	})
}

// BenchmarkAblationQueueTopology compares per-NUMA-region queues against a
// single global queue (Regions=1) for asynchronous PageRank (Section 5.2).
func BenchmarkAblationQueueTopology(b *testing.B) {
	g := benchGraph()
	run := func(b *testing.B, regions int) {
		pool := benchPool(b, exec.Config{Workers: 4, Topology: topo(regions, 4)})
		for i := 0; i < b.N; i++ {
			runPR(b, pagerank.Config{
				Exec:      exec.JobConfig{MaxIterations: 10},
				Pool:      pool,
				Isolation: isolation.Options{Level: isolation.Asynchronous},
				Epsilon:   -1,
			}, g)
		}
	}
	b.Run("per-region-queues", func(b *testing.B) { run(b, 2) })
	b.Run("single-global-queue", func(b *testing.B) { run(b, 1) })
}

// BenchmarkAblationSeqlock compares the general seqlock snapshot install
// against the relaxed single-version store (Section 5.1's async fast
// path).
func BenchmarkAblationSeqlock(b *testing.B) {
	payload := storage.Payload{42}
	b.Run("seqlock-install", func(b *testing.B) {
		rec := storage.NewIterativeRecord(storage.Payload{0}, 4)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rec.Install(payload)
		}
	})
	b.Run("relaxed-install", func(b *testing.B) {
		rec := storage.NewIterativeRecord(storage.Payload{0}, 1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rec.InstallRelaxed(payload)
		}
	})
}

// uncachedPRSub re-resolves its neighbor handles from the table on every
// iteration instead of caching them in tx_state — the access pattern the
// paper's transaction-local storage avoids (Section 2.3).
type uncachedPRSub struct {
	node    *nodeTable
	row     int
	buf     storage.Payload
	iters   uint64
	damping float64
}

type nodeTable struct {
	tbl interface {
		IterRecord(row db4ml.RowID) *storage.IterativeRecord
	}
	inOf  [][]int32
	degOf []float64
}

func (s *uncachedPRSub) Begin(ctx *itx.Ctx) { s.buf = make(storage.Payload, 2) }
func (s *uncachedPRSub) Execute(ctx *itx.Ctx) {
	sum := 0.0
	for _, u := range s.node.inOf[s.row] {
		rec := s.node.tbl.IterRecord(db4ml.RowID(u)) // re-resolve every time
		ctx.Read(rec, s.buf)
		sum += s.buf.Float64(1) / s.node.degOf[u]
	}
	rec := s.node.tbl.IterRecord(db4ml.RowID(s.row))
	s.buf.SetInt64(0, int64(s.row))
	s.buf.SetFloat64(1, 0.15+s.damping*sum)
	ctx.Write(rec, s.buf)
}
func (s *uncachedPRSub) Validate(ctx *itx.Ctx) itx.Action {
	if ctx.Iteration()+1 >= s.iters {
		return itx.Done
	}
	return itx.Commit
}

// cachedPRSub is the twin of uncachedPRSub that resolves its record
// handles once in Begin (the paper's tx_state caching) instead of per
// iteration; everything else is identical.
type cachedPRSub struct {
	node    *nodeTable
	row     int
	buf     storage.Payload
	iters   uint64
	damping float64
	myRec   *storage.IterativeRecord
	nRecs   []*storage.IterativeRecord
}

func (s *cachedPRSub) Begin(ctx *itx.Ctx) {
	s.buf = make(storage.Payload, 2)
	s.myRec = s.node.tbl.IterRecord(db4ml.RowID(s.row))
	s.nRecs = make([]*storage.IterativeRecord, len(s.node.inOf[s.row]))
	for i, u := range s.node.inOf[s.row] {
		s.nRecs[i] = s.node.tbl.IterRecord(db4ml.RowID(u))
	}
}

func (s *cachedPRSub) Execute(ctx *itx.Ctx) {
	sum := 0.0
	for i, u := range s.node.inOf[s.row] {
		ctx.Read(s.nRecs[i], s.buf)
		sum += s.buf.Float64(1) / s.node.degOf[u]
	}
	s.buf.SetInt64(0, int64(s.row))
	s.buf.SetFloat64(1, 0.15+s.damping*sum)
	ctx.Write(s.myRec, s.buf)
}

func (s *cachedPRSub) Validate(ctx *itx.Ctx) itx.Action {
	if ctx.Iteration()+1 >= s.iters {
		return itx.Done
	}
	return itx.Commit
}

// BenchmarkAblationTxStateCache compares PageRank with tx_state-cached
// record handles against an otherwise identical variant that re-resolves
// handles through the table on every iteration (Section 2.3's motivation
// for transaction-local storage).
func BenchmarkAblationTxStateCache(b *testing.B) {
	g := benchGraph()
	mkSubs := func(tbl *db4ml.Table, nt *nodeTable, cached bool) []db4ml.IterativeTransaction {
		subs := make([]db4ml.IterativeTransaction, g.NumNodes())
		for v := range subs {
			if cached {
				subs[v] = &cachedPRSub{node: nt, row: v, iters: 10, damping: 0.85}
			} else {
				subs[v] = &uncachedPRSub{node: nt, row: v, iters: 10, damping: 0.85}
			}
		}
		return subs
	}
	run := func(b *testing.B, cached bool) {
		for i := 0; i < b.N; i++ {
			db := db4ml.Open(db4ml.WithWorkers(4))
			tbl, err := db.CreateTable("Node",
				db4ml.Column{Name: "NodeID", Type: db4ml.Int64},
				db4ml.Column{Name: "PR", Type: db4ml.Float64})
			if err != nil {
				b.Fatal(err)
			}
			rows := make([]db4ml.Payload, g.NumNodes())
			for v := range rows {
				p := tbl.Schema().NewPayload()
				p.SetInt64(0, int64(v))
				p.SetFloat64(1, 1/float64(g.NumNodes()))
				rows[v] = p
			}
			if err := db.BulkLoad(tbl, rows); err != nil {
				b.Fatal(err)
			}
			nt := &nodeTable{tbl: tbl, inOf: make([][]int32, g.NumNodes()), degOf: make([]float64, g.NumNodes())}
			for v := int32(0); int(v) < g.NumNodes(); v++ {
				nt.inOf[v] = g.InNeighbors(v)
				nt.degOf[v] = float64(g.OutDegree(v))
				if nt.degOf[v] == 0 {
					nt.degOf[v] = 1
				}
			}
			if _, err := db.RunML(db4ml.MLRun{
				Isolation: db4ml.MLOptions{Level: db4ml.Asynchronous},
				Attach:    []db4ml.Attachment{{Table: tbl}},
				Subs:      mkSubs(tbl, nt, cached),
			}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("cached-tx-state", func(b *testing.B) { run(b, true) })
	b.Run("uncached-lookups", func(b *testing.B) { run(b, false) })
}

// BenchmarkObserverOverhead guards the telemetry layer's cost contract:
// with Observer nil the engine's hot paths pay a single nil-check, so the
// observer-off variant must stay within noise of the pre-telemetry engine;
// observer-on shows the actual price of collection. Compare the two
// sub-benchmarks to see the overhead of enabling telemetry.
func BenchmarkObserverOverhead(b *testing.B) {
	g := benchGraph()
	run := func(b *testing.B, o *obs.Observer) {
		pool := benchPool(b, exec.Config{Workers: 4})
		for i := 0; i < b.N; i++ {
			runPR(b, pagerank.Config{
				Exec:      exec.JobConfig{MaxIterations: 10, Observer: o},
				Pool:      pool,
				Isolation: isolation.Options{Level: isolation.Asynchronous},
				Epsilon:   -1,
			}, g)
		}
	}
	b.Run("observer-off", func(b *testing.B) { run(b, nil) })
	b.Run("observer-on", func(b *testing.B) { run(b, obs.New()) })
}

// BenchmarkTraceOverhead guards the span tracer's cost contract, mirroring
// BenchmarkObserverOverhead: with Tracer nil the hot paths pay a nil check
// (the off variant must stay within noise, documented <2% in EXPERIMENTS.md);
// tracer-on shows the price of recording batch/queue/steal spans into the
// per-worker rings.
func BenchmarkTraceOverhead(b *testing.B) {
	g := benchGraph()
	run := func(b *testing.B, tr *trace.Tracer) {
		pool := benchPool(b, exec.Config{Workers: 4})
		for i := 0; i < b.N; i++ {
			runPR(b, pagerank.Config{
				Exec:      exec.JobConfig{MaxIterations: 10, Tracer: tr},
				Pool:      pool,
				Isolation: isolation.Options{Level: isolation.Asynchronous},
				Epsilon:   -1,
			}, g)
		}
	}
	b.Run("tracer-off", func(b *testing.B) { run(b, nil) })
	b.Run("tracer-on", func(b *testing.B) { run(b, trace.New(4, 0)) })
}

// BenchmarkHistogramOverhead measures the latency-histogram primitive the
// engine's instrumented paths call per attempt/batch/steal: one RecordLatency
// is a few atomic ops and must not allocate (the 0-alloc contract is also
// enforced by TestRecordLatencyDoesNotAllocate). Contended shows the
// worst-case false-sharing cost when several goroutines record into one
// worker's shard.
func BenchmarkHistogramOverhead(b *testing.B) {
	b.Run("record", func(b *testing.B) {
		ob := obs.New()
		ob.BeginRun(4)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ob.RecordLatency(0, obs.AttemptLatency, int64(i)&0xfffff)
		}
	})
	b.Run("record-contended", func(b *testing.B) {
		ob := obs.New()
		ob.BeginRun(4)
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := int64(0)
			for pb.Next() {
				ob.RecordLatency(0, obs.AttemptLatency, i&0xfffff)
				i++
			}
		})
	})
	b.Run("snapshot", func(b *testing.B) {
		ob := obs.New()
		ob.BeginRun(4)
		for i := 0; i < 1<<16; i++ {
			ob.RecordLatency(i&3, obs.AttemptLatency, int64(i))
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = ob.Snapshot()
		}
	})
}

// --- Hot-path micro-benchmarks -------------------------------------------

func BenchmarkQueuePushPop(b *testing.B) {
	q := queue.New[int]()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			q.Push(1)
			q.Pop()
		}
	})
}

func BenchmarkIterativeReadRecent(b *testing.B) {
	rec := storage.NewIterativeRecord(storage.Payload{1}, 4)
	rec.Install(storage.Payload{2})
	out := make(storage.Payload, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.ReadRecent(out)
	}
}

func BenchmarkIterativeReadRelaxed(b *testing.B) {
	rec := storage.NewIterativeRecord(storage.Payload{1}, 1)
	out := make(storage.Payload, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.ReadRelaxed(out)
	}
}

func topo(regions, workers int) (t db4ml.Topology) {
	t.Regions = regions
	t.Workers = workers
	return t
}
