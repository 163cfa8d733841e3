package main

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"time"

	"db4ml"
	"db4ml/internal/baselines/hogwild"
	"db4ml/internal/exec"
	"db4ml/internal/ml/sgd"
	"db4ml/internal/storage"
	"db4ml/internal/svm"
)

const (
	sgdEpochs = 5
	sgdLambda = 1e-5
	sgdSubs   = 2 // one sub-transaction per worker core (Algorithm 3)
)

// sgdInst is the Hogwild SGD workload: a linear SVM whose parameter vector
// is one ML-table row per coordinate.
type sgdInst struct {
	mlSpec
	store    []svm.Sample // training set, shuffled once like sgd.LoadTables does
	test     []svm.Sample
	features int
	seed     int64
	tmp      string

	t    *mlTarget
	pool *exec.Pool

	model    svm.VecModel // last read-back
	baseAcc  float64      // accuracy of the last interleaved Hogwild! model
	haveBase bool
}

func sgdWorkload(name string) workload {
	return workload{name: name, unit: "sample step", setup: func(seed int64, sz sizes, tmp string) (instance, error) {
		train, test := svm.Generate(svm.GenSpec{
			Train: sz.sgdTrain, Test: sz.sgdTest, Features: sz.sgdFeatures, Density: sz.sgdDensity, Noise: 0.05, Seed: seed,
		})
		svm.Shuffle(train, seed)
		s := &sgdInst{store: train, test: test, features: sz.sgdFeatures, seed: seed, tmp: tmp}
		s.iso = db4ml.MLOptions{Level: db4ml.Asynchronous}
		s.units = float64(len(train)) * sgdEpochs
		s.model = make(svm.VecModel, s.features)
		s.load = s.loadTables
		var err error
		if s.t, err = s.load(openKernel(0, db4ml.WithWorkers(2))); err != nil {
			return nil, err
		}
		if err := s.op(); err != nil {
			s.close()
			return nil, err
		}
		return s, nil
	}}
}

// loadTables builds the paper's Figure-7 data model through the facade:
// GlobalParameter(ParamID, Value) zeroed, Sample(RandID, SampleIdx) with a
// tree index on RandID; feature vectors stay in the side store.
func (s *sgdInst) loadTables(k kernel) (*mlTarget, error) {
	params, err := k.CreateTable("GlobalParameter",
		db4ml.Column{Name: "ParamID", Type: db4ml.Int64}, db4ml.Column{Name: "Value", Type: db4ml.Float64})
	if err != nil {
		return nil, err
	}
	samples, err := k.CreateTable("Sample",
		db4ml.Column{Name: "RandID", Type: db4ml.Int64}, db4ml.Column{Name: "SampleIdx", Type: db4ml.Int64})
	if err != nil {
		return nil, err
	}
	prows := make([]db4ml.Payload, s.features)
	for i := range prows {
		prows[i] = db4ml.Payload{uint64(i), 0}
	}
	srows := make([]db4ml.Payload, len(s.store))
	for i := range srows {
		srows[i] = db4ml.Payload{uint64(i), uint64(i)}
	}
	if err := k.BulkLoad(params, prows); err != nil {
		return nil, err
	}
	if err := k.BulkLoad(samples, srows); err != nil {
		return nil, err
	}
	if err := samples.CreateTreeIndex("RandID"); err != nil {
		return nil, err
	}
	tables := &sgd.Tables{Params: params, Samples: samples, Store: s.store, Features: s.features}
	return &mlTarget{
		k: k, attach: params,
		build: func(ts db4ml.Timestamp) ([]db4ml.IterativeTransaction, func(int) int, error) {
			subs, err := sgd.BuildSubs(tables, ts, sgdSubs, sgd.Config{Epochs: sgdEpochs, Lambda: sgdLambda, Seed: s.seed})
			return subs, nil, err
		},
		read: func(ts db4ml.Timestamp) error {
			for i := range s.model {
				r, ok := params.Read(db4ml.RowID(i), ts)
				if !ok {
					return fmt.Errorf("parameter %d unreadable at commit timestamp %d", i, ts)
				}
				s.model[i] = r.Float64(sgd.ColValue)
			}
			return nil
		},
	}, nil
}

func (s *sgdInst) unitsPerOp() float64 { return s.units }
func (s *sgdInst) burst() int          { return 1 }
func (s *sgdInst) baselineReps() int   { return 1 }
func (s *sgdInst) op() error           { return s.run(s.t) }
func (s *sgdInst) native() string      { return "db4ml" }

func (s *sgdInst) baseline() (time.Duration, error) { return timeOf(s.hogwild) }

// hogwild is Hogwild! on a plain atomic vector — same samples, same epochs,
// same step schedule, same two workers: the baseline and the raw rung.
func (s *sgdInst) hogwild() error {
	m := hogwild.Train(s.store, s.features, hogwild.Config{Workers: sgdSubs, Epochs: sgdEpochs, Lambda: sgdLambda, Seed: s.seed})
	s.baseAcc, s.haveBase = svm.Accuracy(m.Snapshot(), s.test), true
	return nil
}

// verify: the committed model must classify the held-out set at least as
// well as the interleaved Hogwild! baseline, less 0.02.
func (s *sgdInst) verify() error {
	defer s.t.k.PruneNow()
	if !s.haveBase {
		if err := s.hogwild(); err != nil {
			return err
		}
	}
	if acc := svm.Accuracy(s.model, s.test); acc < s.baseAcc-0.02 {
		return fmt.Errorf("test accuracy %.4f is below the Hogwild! baseline %.4f - 0.02", acc, s.baseAcc)
	}
	return nil
}

func (s *sgdInst) finish() error { return nil }

func (s *sgdInst) close() {
	if s.pool != nil {
		s.pool.Close()
	}
	s.t.k.Close()
}

func (s *sgdInst) traced(tr *tracer) error {
	if s.pool == nil {
		var err error
		if s.pool, err = exec.NewPool(exec.Config{Workers: 2}); err != nil {
			return err
		}
	}
	return s.runByHand(s.t, s.pool, tr)
}

func (s *sgdInst) rungs() []rung { return s.mlSpec.rungs(s.hogwild, s.storageLoop, s.tmp) }

// recModel is svm.Model over bare iterative records: the relaxed column
// load/store a sub-transaction's Ctx issues under the asynchronous level,
// without the Ctx.
type recModel []*storage.IterativeRecord

func (m recModel) Get(i int32) float64 { return math.Float64frombits(m[i].LoadRelaxed(sgd.ColValue)) }
func (m recModel) Add(i int32, delta float64) {
	m[i].StoreRelaxed(sgd.ColValue, math.Float64bits(m.Get(i)+delta))
}

// storageLoop is the storage rung: the training loop of one job run from a
// single goroutine straight against one record per coordinate.
func (s *sgdInst) storageLoop() error {
	m := recModel(storage.NewIterativeRecordBatch(s.features, 2, 1, func(i int) storage.Payload {
		return storage.Payload{uint64(i), 0}
	}))
	per := len(s.store) / sgdSubs
	for w := 0; w < sgdSubs; w++ {
		lo, hi := w*per, (w+1)*per
		if w == sgdSubs-1 {
			hi = len(s.store)
		}
		rng := rand.New(rand.NewSource(s.seed + int64(w)))
		gamma := 5e-2
		for e := 0; e < sgdEpochs; e++ {
			for i := lo; i < hi; i++ {
				svm.Step(m, s.store[lo+rng.Intn(hi-lo)], gamma, sgdLambda)
			}
			gamma *= 0.8
		}
	}
	return nil
}

func (s *sgdInst) detail(io.Writer) error { return nil }
