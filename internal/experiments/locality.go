package experiments

import (
	"fmt"

	"db4ml/internal/exec"
	"db4ml/internal/graph"
	"db4ml/internal/isolation"
	"db4ml/internal/ml/pagerank"
	"db4ml/internal/numa"
	"db4ml/internal/partition"
)

// Locality is an extra experiment (not a paper figure): it quantifies the
// Section 5.2 claim that DB4ML's partitioning keeps ML data accesses NUMA
// local. For each partitioning scheme it runs PageRank over a simulated
// 4-region topology and reports the fraction of (node, in-neighbor)
// accesses that cross regions, on two graph shapes: a ring (maximal
// locality available) and the gplus stand-in (social-graph hubs make
// perfect locality impossible).
func Locality(opts Options) error {
	opts = opts.withDefaults()
	type input struct {
		name string
		g    *graph.Graph
	}
	ring := func(n int) *graph.Graph {
		edges := make([]graph.Edge, n)
		for i := range edges {
			edges[i] = graph.Edge{From: int32(i), To: int32((i + 1) % n)}
		}
		g, err := graph.FromEdges(n, edges)
		if err != nil {
			panic(err)
		}
		return g
	}
	inputs := []input{
		{"ring", ring(4096)},
		{"gplus", prGraph("gplus", opts.Quick)},
	}
	schemes := []partition.Scheme{partition.Range, partition.RoundRobin, partition.Hash}

	header(opts.Out, "Locality (extra): remote access fraction by partitioning scheme, 4 NUMA regions")
	tw := tab(opts.Out, "graph", "scheme", "local", "remote", "remote fraction")
	pool := newPool(exec.Config{Workers: 4, Topology: numa.NewTopology(4, 4)})
	defer pool.Close()
	for _, in := range inputs {
		for _, scheme := range schemes {
			var tr numa.Traffic
			mgr, node, edge := loadPR(in.g)
			if _, err := pagerank.Run(mgr, node, edge, pagerank.Config{
				Exec:      exec.JobConfig{MaxIterations: 2},
				Pool:      pool,
				Isolation: isolation.Options{Level: isolation.Asynchronous},
				Epsilon:   -1,
				Partition: scheme,
				Traffic:   &tr,
			}); err != nil {
				return err
			}
			row(tw, in.name, scheme.String(), tr.Local(), tr.Remote(),
				fmt.Sprintf("%.1f%%", tr.RemoteFraction()*100))
		}
	}
	return tw.Flush()
}
