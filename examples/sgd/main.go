// Hogwild!-style SGD as a user-defined ML algorithm in DB4ML (the paper's
// second use case, Section 6.2), written against the public API: the
// parameter vector lives in a GlobalParameter ML-table (one row per
// coordinate), each worker core runs one iterative sub-transaction over
// its key range of the shuffled training data, and model updates flow
// through the asynchronous isolation level — lock-free and immediately
// visible, exactly like Hogwild!.
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"

	"db4ml"
	"db4ml/internal/storage"
	"db4ml/internal/svm"
)

const (
	colValue  = 1
	epochs    = 12
	stepSize  = 5e-2
	stepDecay = 0.8
	lambda    = 1e-5
)

// sgdSub trains on one partition of the samples; one Execute call is one
// epoch (Algorithm 4 of the paper).
type sgdSub struct {
	params  *db4ml.Table
	samples []svm.Sample // this sub's partition
	seed    int64

	recs  []*storage.IterativeRecord
	rng   *rand.Rand
	gamma float64
}

func (s *sgdSub) Begin(ctx *db4ml.Ctx) {
	s.recs = make([]*storage.IterativeRecord, s.params.NumRows())
	for i := range s.recs {
		s.recs[i] = s.params.IterRecord(db4ml.RowID(i))
	}
	s.rng = rand.New(rand.NewSource(s.seed))
	s.gamma = stepSize
}

// model adapts the parameter table to svm.Model through the context.
type model struct {
	ctx  *db4ml.Ctx
	recs []*storage.IterativeRecord
}

func (m *model) Get(i int32) float64 {
	return math.Float64frombits(m.ctx.ReadCol(m.recs[i], colValue))
}

func (m *model) Add(i int32, delta float64) {
	m.ctx.WriteCol(m.recs[i], colValue, math.Float64bits(m.Get(i)+delta))
}

func (s *sgdSub) Execute(ctx *db4ml.Ctx) {
	m := &model{ctx: ctx, recs: s.recs}
	for range s.samples {
		sample := s.samples[s.rng.Intn(len(s.samples))]
		svm.Step(m, sample, s.gamma, lambda)
	}
	s.gamma *= stepDecay
}

func (s *sgdSub) Validate(ctx *db4ml.Ctx) db4ml.Action {
	if ctx.Iteration()+1 >= epochs {
		return db4ml.Done
	}
	return db4ml.Commit
}

func main() {
	const features = 100
	// One sub-transaction per worker, each owning a contiguous partition
	// of the shuffled samples (Algorithm 3 of the paper).
	const workers = 4
	train, test := svm.Generate(svm.GenSpec{
		Train: 20000, Test: 4000, Features: features, Density: 0.3, Noise: 0.05, Seed: 7,
	})
	svm.Shuffle(train, 7)

	db := db4ml.Open(db4ml.WithWorkers(workers))
	defer db.Close()
	params, err := db.CreateTable("GlobalParameter",
		db4ml.Column{Name: "ParamID", Type: db4ml.Int64},
		db4ml.Column{Name: "Value", Type: db4ml.Float64})
	if err != nil {
		log.Fatal(err)
	}
	rows := make([]db4ml.Payload, features)
	for i := range rows {
		p := params.Schema().NewPayload()
		p.SetInt64(0, int64(i))
		rows[i] = p
	}
	if err := db.BulkLoad(params, rows); err != nil {
		log.Fatal(err)
	}

	per := len(train) / workers
	subs := make([]db4ml.IterativeTransaction, workers)
	for w := 0; w < workers; w++ {
		lo, hi := w*per, (w+1)*per
		if w == workers-1 {
			hi = len(train)
		}
		subs[w] = &sgdSub{params: params, samples: train[lo:hi], seed: int64(w + 1)}
	}

	stats, err := db.RunML(db4ml.MLRun{
		Isolation: db4ml.MLOptions{Level: db4ml.Asynchronous},
		Attach:    []db4ml.Attachment{{Table: params}},
		Subs:      subs,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("SGD: %d epochs committed across %d workers in %v\n",
		stats.Commits, workers, stats.Elapsed.Round(1000))

	// Evaluate the committed model via a normal transaction.
	tx := db.Begin()
	w := make(svm.VecModel, features)
	for i := 0; i < features; i++ {
		p, _ := tx.Read(params, db4ml.RowID(i))
		w[i] = p.Float64(colValue)
	}
	fmt.Printf("test accuracy: %.4f (train %.4f)\n",
		svm.Accuracy(w, test), svm.Accuracy(w, train))
}
