package experiments

import (
	"fmt"
	"time"

	"db4ml/internal/baselines/hogwild"
	"db4ml/internal/baselines/hogwildpp"
	"db4ml/internal/cachesim"
	"db4ml/internal/exec"
	"db4ml/internal/ml/sgd"
	"db4ml/internal/storage"
	"db4ml/internal/svm"
	"db4ml/internal/table"
	"db4ml/internal/txn"
)

// sgdScaleDiv holds the default down-scaling of each SGD dataset.
var sgdScaleDiv = map[string]int{
	"rcv1":    64,
	"susy":    512,
	"epsilon": 128,
	"news20":  16,
	"covtype": 64,
}

type sgdData struct {
	name     string
	train    []svm.Sample
	test     []svm.Sample
	features int
	lambda   float64
}

func sgdDataset(name string, quick bool) sgdData {
	d, err := svm.SGDByName(name)
	if err != nil {
		panic(err)
	}
	div := sgdScaleDiv[name]
	if quick {
		div *= 8
	}
	train, test, features := d.Generate(div)
	return sgdData{name: name, train: train, test: test, features: features, lambda: d.Lambda}
}

// Table2 reproduces Table 2: the SGD datasets — paper sizes alongside the
// generated stand-ins.
func Table2(opts Options) error {
	opts = opts.withDefaults()
	header(opts.Out, "Table 2: SGD datasets (paper vs generated stand-in)")
	tw := tab(opts.Out, "dataset", "classes", "paper train", "paper test", "paper features", "gen train", "gen test", "gen features")
	for _, d := range svm.SGDDatasets {
		data := sgdDataset(d.Name, opts.Quick)
		row(tw, d.Name, 2, d.PaperTrain, d.PaperTest, d.PaperFeatures,
			len(data.train), len(data.test), data.features)
	}
	return tw.Flush()
}

// sgdEpochs picks the epoch budget: the paper fixes 20; quick runs use 3.
func sgdEpochs(opts Options) int {
	if opts.Quick {
		return 3
	}
	return 10
}

type sgdRunResult struct {
	elapsed  time.Duration
	accuracy float64
}

func runHogwild(data sgdData, workers, epochs int) sgdRunResult {
	t0 := time.Now()
	m := hogwild.Train(data.train, data.features, hogwild.Config{
		Workers: workers, Epochs: epochs, Lambda: data.lambda, Seed: 1,
	})
	return sgdRunResult{elapsed: time.Since(t0), accuracy: svm.Accuracy(m.Snapshot(), data.test)}
}

func runHogwildPP(data sgdData, workers, epochs int) sgdRunResult {
	t0 := time.Now()
	m := hogwildpp.Train(data.train, data.features, hogwildpp.Config{
		Workers: workers, Epochs: epochs, Lambda: data.lambda, Seed: 1,
	})
	return sgdRunResult{elapsed: time.Since(t0), accuracy: svm.Accuracy(m, data.test)}
}

func runDB4ML(data sgdData, workers, epochs int) sgdRunResult {
	mgr := txn.NewManager()
	tables, err := sgd.LoadTables(mgr, data.train, data.features, 1)
	if err != nil {
		panic(err)
	}
	pool := newPool(exec.Config{Workers: workers})
	defer pool.Close()
	t0 := time.Now()
	res, err := sgd.Run(mgr, tables, sgd.Config{
		Pool:   pool,
		Epochs: epochs, Lambda: data.lambda, Seed: 1,
		Mode: sgd.ReplicatedNUMA,
	})
	if err != nil {
		panic(err)
	}
	return sgdRunResult{elapsed: time.Since(t0), accuracy: svm.Accuracy(res.Model, data.test)}
}

// Fig12 reproduces Figure 12: SGD runtime of Hogwild!, DB4ML and
// Hogwild++ on all five datasets at the maximum worker count.
func Fig12(opts Options) error {
	opts = opts.withDefaults()
	names := []string{"rcv1", "susy", "epsilon", "news20", "covtype"}
	if opts.Quick {
		names = []string{"covtype"}
	}
	workers := opts.MaxWorkers
	epochs := sgdEpochs(opts)
	header(opts.Out, fmt.Sprintf("Figure 12: SGD runtime, %d workers, %d epochs", workers, epochs))
	tw := tab(opts.Out, "dataset", "Hogwild!", "DB4ML", "Hogwild++", "acc HW", "acc DB4ML", "acc HW++")
	for _, name := range names {
		data := sgdDataset(name, opts.Quick)
		hw := runHogwild(data, workers, epochs)
		db := runDB4ML(data, workers, epochs)
		hpp := runHogwildPP(data, workers, epochs)
		row(tw, name, hw.elapsed, db.elapsed, hpp.elapsed, hw.accuracy, db.accuracy, hpp.accuracy)
	}
	return tw.Flush()
}

// Fig13 reproduces Figure 13: SGD scalability (runtime and accuracy)
// across worker counts on three datasets.
func Fig13(opts Options) error {
	opts = opts.withDefaults()
	names := []string{"rcv1", "epsilon", "covtype"}
	if opts.Quick {
		names = []string{"covtype"}
	}
	epochs := sgdEpochs(opts)
	header(opts.Out, fmt.Sprintf("Figure 13: SGD scalability, 1-%d workers, %d epochs", opts.MaxWorkers, epochs))
	tw := tab(opts.Out, "dataset", "workers", "Hogwild!", "DB4ML", "Hogwild++", "acc HW", "acc DB4ML", "acc HW++")
	for _, name := range names {
		data := sgdDataset(name, opts.Quick)
		for _, w := range opts.workerSweep() {
			hw := runHogwild(data, w, epochs)
			db := runDB4ML(data, w, epochs)
			hpp := runHogwildPP(data, w, epochs)
			row(tw, name, w, hw.elapsed, db.elapsed, hpp.elapsed, hw.accuracy, db.accuracy, hpp.accuracy)
		}
	}
	return tw.Flush()
}

// Fig14 reproduces Figure 14: per-sample cycles and L1 misses of DB4ML vs
// Hogwild++ in single-threaded execution, on a few-features dataset
// (covtype) and a many-features dataset (rcv1). Cycles are measured
// wall-clock; L1 misses come from replaying the model-access address
// trace through the cache simulator: Hogwild++ touches one array element
// per coordinate, DB4ML additionally touches the per-parameter record
// metadata — the version-information overhead the paper measures.
func Fig14(opts Options) error {
	opts = opts.withDefaults()
	names := []string{"covtype", "rcv1"}
	epochs := 2
	if opts.Quick {
		epochs = 1
	}
	header(opts.Out, fmt.Sprintf("Figure 14: single-thread per-sample cost, %d epochs", epochs))
	tw := tab(opts.Out, "dataset", "system", "ns/sample", "L1 miss/sample", "LLC miss/sample")
	for _, name := range names {
		data := sgdDataset(name, opts.Quick)
		samples := float64(len(data.train) * epochs)

		db := runDB4ML(data, 1, epochs)
		hpp := runHogwildPP(data, 1, epochs)

		// Address-trace replay of the model accesses of one epoch.
		dbStats := traceDB4ML(data)
		hppStats := traceArrayModel(data)

		row(tw, name, "DB4ML", float64(db.elapsed)/samples,
			float64(dbStats.L1Misses)/float64(len(data.train)),
			float64(dbStats.LLCMisses)/float64(len(data.train)))
		row(tw, name, "Hogwild++", float64(hpp.elapsed)/samples,
			float64(hppStats.L1Misses)/float64(len(data.train)),
			float64(hppStats.LLCMisses)/float64(len(data.train)))
	}
	return tw.Flush()
}

// traceDB4ML replays the model access pattern of DB4ML's SGD: every
// touched coordinate reads the parameter row's iterative record — slot
// metadata plus the value word — in a table of per-row records.
func traceDB4ML(data sgdData) cachesim.Stats {
	mgr := txn.NewManager()
	tables, err := sgd.LoadTables(mgr, data.train, data.features, 1)
	if err != nil {
		panic(err)
	}
	if err := tables.Params.StartIterative(mgr.Stable(), 1, nil); err != nil {
		panic(err)
	}
	recs := make([]*storage.IterativeRecord, data.features)
	for i := range recs {
		recs[i] = tables.Params.IterRecord(table.RowID(i))
	}
	h := cachesim.NewXeonE78830()
	for _, s := range data.train {
		traceSampleData(h, s)
		for _, idx := range s.X.Idx {
			r := recs[idx]
			h.Access(uint64(r.SlotMetaAddr(0)), 16)
			h.Access(uint64(r.SlotDataAddr(0, sgd.ColValue)), 8)
		}
	}
	return h.Stats()
}

// traceArrayModel replays Hogwild++'s model accesses: one packed array
// element per touched coordinate.
func traceArrayModel(data sgdData) cachesim.Stats {
	model := make([]float64, data.features)
	h := cachesim.NewXeonE78830()
	for _, s := range data.train {
		traceSampleData(h, s)
		for _, idx := range s.X.Idx {
			h.Access(uint64(storage.Float64SliceAddr(model, int(idx))), 8)
		}
	}
	return h.Stats()
}

// traceSampleData touches the sample's own index/value arrays — identical
// for both systems, so differences come from the model side only.
func traceSampleData(h *cachesim.Hierarchy, s svm.Sample) {
	for k := range s.X.Idx {
		h.Access(uint64(storage.Int32SliceAddr(s.X.Idx, k)), 4)
		h.Access(uint64(storage.Float64SliceAddr(s.X.Val, k)), 8)
	}
}
