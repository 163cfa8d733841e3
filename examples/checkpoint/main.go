// Checkpoint: train a model inside DB4ML, persist the committed
// parameter table to disk, restore it in a fresh database instance, and
// verify the restored model predicts identically. This exercises the
// disk-persistence extension (internal/checkpoint) on top of the paper's
// in-memory kernel.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"db4ml"
	"db4ml/internal/checkpoint"
	"db4ml/internal/exec"
	"db4ml/internal/ml/sgd"
	"db4ml/internal/svm"
	"db4ml/internal/txn"
)

func main() {
	const features = 40
	train, test := svm.Generate(svm.GenSpec{
		Train: 8000, Test: 2000, Features: features, Density: 1, Noise: 0.05, Seed: 3,
	})

	// Train inside DB4ML (use case 2 of the paper).
	mgr := txn.NewManager()
	tables, err := sgd.LoadTables(mgr, train, features, 3)
	if err != nil {
		log.Fatal(err)
	}
	pool, err := exec.NewPool(exec.Config{Workers: 4})
	if err != nil {
		log.Fatal(err)
	}
	defer pool.Close()
	res, err := sgd.Run(mgr, tables, sgd.Config{
		Pool:   pool,
		Epochs: 10, Lambda: 1e-5, Seed: 3,
	})
	if err != nil {
		log.Fatal(err)
	}
	acc := svm.Accuracy(res.Model, test)
	fmt.Printf("trained model: test accuracy %.4f (%d epochs committed)\n", acc, res.Stats.Commits)

	// Persist the committed GlobalParameter table.
	path := filepath.Join(os.TempDir(), "db4ml-model.ckpt")
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := checkpoint.Save(f, tables.Params, res.CommitTS); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	info, _ := os.Stat(path)
	fmt.Printf("checkpoint written: %s (%d bytes)\n", path, info.Size())

	// Restore into a brand-new database instance.
	f, err = os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	db2 := db4ml.Open()
	defer db2.Close()
	restored, err := checkpoint.Load(f, db2.Manager())
	if err != nil {
		log.Fatal(err)
	}

	// Read the restored model through a normal transaction and verify it
	// predicts identically.
	tx := db2.Begin()
	w := make(svm.VecModel, features)
	for i := 0; i < features; i++ {
		p, ok := tx.Read(restored, db4ml.RowID(i))
		if !ok {
			log.Fatalf("restored parameter %d unreadable", i)
		}
		w[i] = p.Float64(1)
	}
	restoredAcc := svm.Accuracy(w, test)
	fmt.Printf("restored model: test accuracy %.4f\n", restoredAcc)
	if restoredAcc != acc {
		log.Fatalf("restored model differs: %.6f vs %.6f", restoredAcc, acc)
	}
	fmt.Println("restored model is bit-identical to the trained one")
	_ = os.Remove(path)
}
