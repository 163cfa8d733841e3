// Package sgd implements the paper's second use case (Section 6.2):
// Hogwild!-style stochastic gradient descent for a linear SVM as iterative
// transactions inside DB4ML, plus the Hogwild++ NUMA optimizations.
//
// Data model (Figure 7): the parameter vector is the
// GlobalParameter(ParamID, Value) ML-table, one row per coordinate; the
// training set is the Sample(RandID, SampleIdx) ML-table, pre-shuffled,
// with an index on RandID for random draws. Feature vectors themselves are
// an opaque payload referenced by SampleIdx — the paper stores them in a
// vector-valued column X, which this repo's fixed-width tables represent
// by indirection (see DESIGN.md).
//
// The uber-transaction (Algorithm 3) spawns one sub-transaction per worker
// core, each owning a key range of the shuffled Sample table; execute()
// (Algorithm 4) runs one epoch of random draws from that range, writing
// model deltas through the asynchronous isolation level so updates are
// visible immediately, exactly like Hogwild!.
//
// The NUMA mode ports Hogwild++: one replica of the parameter table per
// NUMA region, a Token ML-table whose single row says which region may
// mix next, and ring mixing of adjacent replicas — all expressed with the
// same iterative-transaction primitives.
package sgd

import (
	"fmt"
	"math"
	"math/rand"

	"db4ml/internal/exec"
	"db4ml/internal/isolation"
	"db4ml/internal/itx"
	"db4ml/internal/storage"
	"db4ml/internal/svm"
	"db4ml/internal/table"
	"db4ml/internal/txn"
)

// Column layout.
const (
	ColParamID = 0
	ColValue   = 1

	ColRandID    = 0
	ColSampleIdx = 1
)

// Tables bundles the SGD data model.
type Tables struct {
	// Params is the GlobalParameter table (ParamID, Value).
	Params *table.Table
	// Samples is the Sample table (RandID, SampleIdx), pre-shuffled.
	Samples *table.Table
	// Store holds the feature vectors referenced by SampleIdx.
	Store []svm.Sample
	// Features is the model dimensionality.
	Features int
}

// LoadTables materializes the data model: the training set is shuffled
// (the paper shuffles before the uber-transaction starts so key ranges are
// random samples), inserted with dense RandIDs, and indexed on RandID; the
// parameter table gets one zero-initialized row per feature.
func LoadTables(mgr *txn.Manager, train []svm.Sample, features int, shuffleSeed int64) (*Tables, error) {
	shuffled := append([]svm.Sample(nil), train...)
	svm.Shuffle(shuffled, shuffleSeed)

	params := table.New("GlobalParameter", table.MustSchema(
		table.Column{Name: "ParamID", Type: table.Int64},
		table.Column{Name: "Value", Type: table.Float64},
	))
	samples := table.New("Sample", table.MustSchema(
		table.Column{Name: "RandID", Type: table.Int64},
		table.Column{Name: "SampleIdx", Type: table.Int64},
	))
	var loadErr error
	mgr.PublishAt(func(ts storage.Timestamp) {
		p := params.Schema().NewPayload()
		for i := 0; i < features; i++ {
			p.SetInt64(ColParamID, int64(i))
			p.SetFloat64(ColValue, 0)
			if _, err := params.Append(ts, p); err != nil {
				loadErr = err
				return
			}
		}
		s := samples.Schema().NewPayload()
		for i := range shuffled {
			s.SetInt64(ColRandID, int64(i))
			s.SetInt64(ColSampleIdx, int64(i))
			if _, err := samples.Append(ts, s); err != nil {
				loadErr = err
				return
			}
		}
	})
	if loadErr != nil {
		return nil, loadErr
	}
	if err := samples.CreateTreeIndex("RandID"); err != nil {
		return nil, err
	}
	return &Tables{Params: params, Samples: samples, Store: shuffled, Features: features}, nil
}

// Mode selects the parameter storage layout.
type Mode int

const (
	// SharedModel is the plain Hogwild! port: one GlobalParameter table
	// updated by every sub-transaction.
	SharedModel Mode = iota
	// ReplicatedNUMA is the Hogwild++ port: one replica of the parameter
	// table per NUMA region plus token-ring mixing.
	ReplicatedNUMA
)

// Config tunes one SGD uber-transaction; zero values take the paper's
// settings (20 epochs, step 5e-2, decay 0.8, asynchronous isolation).
type Config struct {
	// Exec configures the job (batch size, caps, telemetry); Run routes
	// each sub-transaction to its worker's region itself, so RegionOf is
	// ignored.
	Exec exec.JobConfig
	// Pool is the worker pool Run submits the job to; its worker count is
	// the number of sub-transactions and its topology places them. Run
	// returns exec.ErrNoPool without one.
	Pool *exec.Pool
	// Isolation overrides the ML isolation level; nil keeps the paper's
	// Hogwild!-style asynchronous default. (A pointer, because the zero
	// Options value means Synchronous.) Bounded staleness turns the model
	// writes into buffered per-iteration installs with staleness-validated
	// reads — the SSP-flavoured variant.
	Isolation *isolation.Options
	Epochs    int
	StepSize  float64
	StepDecay float64
	Lambda    float64
	Mode      Mode
	// Beta is the replica mixing weight of ReplicatedNUMA mode.
	Beta float64
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Epochs <= 0 {
		c.Epochs = 20
	}
	if c.StepSize == 0 {
		c.StepSize = 5e-2
	}
	if c.StepDecay == 0 {
		c.StepDecay = 0.8
	}
	if c.Beta == 0 {
		c.Beta = 0.5
	}
	return c
}

// Result of one SGD run.
type Result struct {
	// Model is the final parameter vector (replica average in
	// ReplicatedNUMA mode), read from the committed table(s).
	Model svm.VecModel
	// Stats is the executor's account of the run.
	Stats exec.Stats
	// CommitTS is the uber-transaction's commit timestamp.
	CommitTS storage.Timestamp
}

// ctxModel adapts a cached set of parameter records to svm.Model; all
// access goes through the sub-transaction's context so the isolation level
// is enforced.
type ctxModel struct {
	ctx  *itx.Ctx
	recs []*storage.IterativeRecord
}

func (m *ctxModel) Get(i int32) float64 {
	return math.Float64frombits(m.ctx.ReadCol(m.recs[i], ColValue))
}

func (m *ctxModel) Add(i int32, delta float64) {
	v := m.Get(i)
	m.ctx.WriteCol(m.recs[i], ColValue, math.Float64bits(v+delta))
}

// sub is the iterative sub-transaction of Algorithm 4. Its tx_state caches
// the key range, hyperparameters, and the parameter record handles.
type sub struct {
	tables  *Tables
	replica *replicaSet // non-nil in ReplicatedNUMA mode
	region  int

	lowKey, highKey int64 // inclusive range of RandIDs
	snapshot        storage.Timestamp
	epochs          int
	stepSize        float64
	stepDecay       float64
	lambda          float64
	seed            int64
	beta            float64

	// tx_state built in Begin.
	model   ctxModel
	rng     *rand.Rand
	gamma   float64
	mixer   bool // first sub of its region mixes on token receipt
	rowOf   []table.RowID
	sampler func() svm.Sample
}

func (s *sub) Begin(ctx *itx.Ctx) {
	var params *table.Table
	if s.replica != nil {
		params = s.replica.tables[s.region]
	} else {
		params = s.tables.Params
	}
	recs := make([]*storage.IterativeRecord, s.tables.Features)
	for i := range recs {
		recs[i] = params.IterRecord(table.RowID(i))
	}
	s.model = ctxModel{ctx: ctx, recs: recs}
	s.rng = rand.New(rand.NewSource(s.seed))
	s.gamma = s.stepSize

	// Resolve the key range to sample rows once, via the RandID index —
	// the table.getTuple(rid) access path of Algorithm 4.
	idx := s.tables.Samples.TreeIndex("RandID")
	s.rowOf = make([]table.RowID, 0, s.highKey-s.lowKey+1)
	idx.Range(s.lowKey, s.highKey, func(_ int64, row uint64) bool {
		s.rowOf = append(s.rowOf, table.RowID(row))
		return true
	})
	idxCol := s.tables.Samples.Schema().MustCol("SampleIdx")
	s.sampler = func() svm.Sample {
		row := s.rowOf[s.rng.Intn(len(s.rowOf))]
		p, ok := s.tables.Samples.Read(row, s.snapshot)
		if !ok {
			panic(fmt.Sprintf("sgd: sample row %d invisible at uber snapshot %d", row, s.snapshot))
		}
		return s.tables.Store[p.Int64(idxCol)]
	}
}

func (s *sub) Execute(ctx *itx.Ctx) {
	s.model.ctx = ctx
	for i := 0; i < len(s.rowOf); i++ {
		sample := s.sampler()
		svm.Step(&s.model, sample, s.gamma, s.lambda)
	}
	s.gamma *= s.stepDecay
	if s.replica != nil && s.mixer {
		s.replica.maybeMix(ctx, s.region, s.beta)
	}
}

func (s *sub) Validate(ctx *itx.Ctx) itx.Action {
	if int(ctx.Iteration())+1 >= s.epochs {
		return itx.Done
	}
	return itx.Commit
}

// BuildSubs constructs the shared-model sub-transactions of Algorithm 3 at
// snapshot ts: nSubs subs (clamped to the training-set size), each owning a
// contiguous key range of the shuffled Sample table and seeded
// cfg.Seed+i. Run builds through it too, then places each sub on its
// worker's region and, in ReplicatedNUMA mode, wires the replica set Run
// owns; so external drivers — the sharded facade in particular — run the
// byte-identical SharedModel bodies Run would, which makes "distributed SGD
// matches single-kernel SGD" checkable rather than approximate.
func BuildSubs(tables *Tables, ts storage.Timestamp, nSubs int, cfg Config) ([]itx.Sub, error) {
	cfg = cfg.withDefaults()
	rows := len(tables.Store)
	if rows == 0 {
		return nil, fmt.Errorf("sgd: empty training set")
	}
	if nSubs > rows {
		nSubs = rows
	}
	if nSubs <= 0 {
		return nil, fmt.Errorf("sgd: %d sub-transactions requested", nSubs)
	}
	per := rows / nSubs
	subs := make([]itx.Sub, nSubs)
	for i := 0; i < nSubs; i++ {
		low := int64(i * per)
		high := low + int64(per) - 1
		if i == nSubs-1 {
			high = int64(rows - 1)
		}
		subs[i] = &sub{
			tables: tables,
			lowKey: low, highKey: high, snapshot: ts,
			epochs: cfg.Epochs, stepSize: cfg.StepSize, stepDecay: cfg.StepDecay,
			lambda: cfg.Lambda, seed: cfg.Seed + int64(i), beta: cfg.Beta,
		}
	}
	return subs, nil
}

// Run executes SGD as one uber-transaction over tables and commits the
// trained model.
func Run(mgr *txn.Manager, tables *Tables, cfg Config) (Result, error) {
	// The pool's topology sizes the replica set, which is loaded before
	// the uber-transaction begins.
	if cfg.Pool == nil {
		return Result{}, exec.ErrNoPool
	}
	cfg = cfg.withDefaults()
	iso := isolation.Options{Level: isolation.Asynchronous}
	if cfg.Isolation != nil {
		iso = *cfg.Isolation
	}
	topo := cfg.Pool.Topology()

	// Replica tables must exist before the uber-transaction fixes its
	// snapshot, or their rows would be invisible to StartIterative.
	var rs *replicaSet
	attach := []itx.Attachment{{Table: tables.Params}}
	if cfg.Mode == ReplicatedNUMA {
		var err error
		if rs, err = newReplicaSet(mgr, tables, topo.Regions); err != nil {
			return Result{}, err
		}
		attach = rs.attachments()
	}
	r, err := exec.StartUber(exec.UberSpec{
		Isolation: iso,
		Parts: []exec.UberPart{{
			Pool:   cfg.Pool,
			Mgr:    mgr,
			Attach: attach,
			Build: func(ts storage.Timestamp) ([]itx.Sub, func(int) int, error) {
				// One sub-transaction per worker core (Algorithm 3), each on its
				// worker's region; the first sub of a region mixes its replica.
				subs, err := BuildSubs(tables, ts, cfg.Pool.Workers(), cfg)
				if err != nil {
					return nil, nil, err
				}
				if rs != nil {
					rs.resolve()
				}
				seenRegion := make(map[int]bool)
				for i, s := range subs {
					s := s.(*sub)
					s.replica, s.region = rs, topo.RegionOf(i)
					s.mixer = !seenRegion[s.region]
					seenRegion[s.region] = true
				}
				return subs, topo.RegionOf, nil
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
	model, err := finalModel(tables, rs, ts)
	if err != nil {
		return Result{}, err
	}
	return Result{Model: model, Stats: stats, CommitTS: ts}, nil
}

// finalModel reads the committed parameter table(s); in replicated mode it
// averages the replicas, like Hogwild++'s final model.
func finalModel(tables *Tables, rs *replicaSet, ts storage.Timestamp) (svm.VecModel, error) {
	model := make(svm.VecModel, tables.Features)
	if rs == nil {
		for i := 0; i < tables.Features; i++ {
			p, ok := tables.Params.Read(table.RowID(i), ts)
			if !ok {
				return nil, fmt.Errorf("sgd: parameter %d unreadable after commit", i)
			}
			model[i] = p.Float64(ColValue)
		}
		return model, nil
	}
	for _, rep := range rs.tables {
		for i := 0; i < tables.Features; i++ {
			p, ok := rep.Read(table.RowID(i), ts)
			if !ok {
				return nil, fmt.Errorf("sgd: replica parameter %d unreadable", i)
			}
			model[i] += p.Float64(ColValue)
		}
	}
	for i := range model {
		model[i] /= float64(len(rs.tables))
	}
	return model, nil
}
