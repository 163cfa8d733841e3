// Connected components via min-label propagation — a third ML algorithm
// implemented on DB4ML's iterative-transaction model (after PageRank and
// SGD), demonstrating the synchronous level's converge-together barrier:
// a node's label can be momentarily stable while a smaller label is still
// several hops away, so nodes must retire together at the global fixpoint.
// The result is validated against a union-find reference.
package main

import (
	"fmt"
	"log"

	"db4ml/internal/exec"
	"db4ml/internal/graph"
	"db4ml/internal/isolation"
	"db4ml/internal/ml/labelprop"
	"db4ml/internal/txn"
)

func main() {
	// A sparse random graph: n edges ≈ n nodes leaves many components.
	g := graph.ErdosRenyi(5000, 5500, 42)
	mgr := txn.NewManager()
	tbl, err := labelprop.LoadTable(mgr, g)
	if err != nil {
		log.Fatal(err)
	}

	pool, err := exec.NewPool(exec.Config{Workers: 4})
	if err != nil {
		log.Fatal(err)
	}
	defer pool.Close()
	res, err := labelprop.Run(mgr, tbl, g, labelprop.Config{
		Pool:      pool,
		Isolation: isolation.Options{Level: isolation.Synchronous},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("connected components: %d (in %d rounds, %v)\n",
		res.Components, res.Stats.Rounds, res.Stats.Elapsed.Round(1000))

	// Validate against the sequential union-find reference.
	ref := labelprop.RefComponents(g)
	for v := range ref {
		if res.Labels[v] != ref[v] {
			log.Fatalf("node %d: label %d, reference %d", v, res.Labels[v], ref[v])
		}
	}
	fmt.Println("labels match the union-find reference exactly")

	// Size distribution of the largest components.
	sizes := map[int64]int{}
	for _, l := range res.Labels {
		sizes[l]++
	}
	largest := 0
	for _, s := range sizes {
		if s > largest {
			largest = s
		}
	}
	fmt.Printf("largest component: %d of %d nodes\n", largest, g.NumNodes())
}
