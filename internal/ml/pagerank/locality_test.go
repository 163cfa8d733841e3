package pagerank

import (
	"testing"

	"db4ml/internal/exec"
	"db4ml/internal/graph"
	"db4ml/internal/isolation"
	"db4ml/internal/numa"
	"db4ml/internal/partition"
)

// ringGraph builds a directed ring: node i links to i+1. Neighbor accesses
// are maximally local under range partitioning and maximally remote under
// round-robin, which makes the locality accounting easy to verify.
func ringGraph(t *testing.T, n int) *graph.Graph {
	t.Helper()
	edges := make([]graph.Edge, n)
	for i := range edges {
		edges[i] = graph.Edge{From: int32(i), To: int32((i + 1) % n)}
	}
	g, err := graph.FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func trafficFor(t *testing.T, scheme partition.Scheme) *numa.Traffic {
	t.Helper()
	g := ringGraph(t, 64)
	mgr, node, edge := load(t, g)
	var tr numa.Traffic
	_, err := Run(mgr, node, edge, Config{
		Exec:      exec.JobConfig{MaxIterations: 2},
		Pool:      newPool(t, exec.Config{Workers: 4, Topology: numa.NewTopology(4, 4)}),
		Isolation: isolation.Options{Level: isolation.Asynchronous},
		Epsilon:   -1,
		Partition: scheme,
		Traffic:   &tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &tr
}

func TestRangePartitioningKeepsRingLocal(t *testing.T) {
	tr := trafficFor(t, partition.Range)
	if tr.Local()+tr.Remote() != 64 {
		t.Fatalf("accounted %d accesses, want 64", tr.Local()+tr.Remote())
	}
	// Ring over 4 range partitions: only the 4 boundary edges are remote.
	if tr.Remote() != 4 {
		t.Fatalf("range partitioning: %d remote accesses, want 4", tr.Remote())
	}
}

func TestRoundRobinPartitioningIsAllRemoteOnRing(t *testing.T) {
	tr := trafficFor(t, partition.RoundRobin)
	// Every ring neighbor i-1 lives in a different round-robin partition.
	if tr.Local() != 0 || tr.Remote() != 64 {
		t.Fatalf("round-robin: local=%d remote=%d, want 0/64", tr.Local(), tr.Remote())
	}
}

func TestLocalityAccountingMatchesPaperClaim(t *testing.T) {
	// The structural claim of Section 5.2: range partitioning a graph
	// with locality (here: the ring) keeps the remote fraction near the
	// partition-boundary fraction, far below round-robin's.
	rangeTr := trafficFor(t, partition.Range)
	rrTr := trafficFor(t, partition.RoundRobin)
	if rangeTr.RemoteFraction() >= rrTr.RemoteFraction() {
		t.Fatalf("range remote fraction %.2f not below round-robin %.2f",
			rangeTr.RemoteFraction(), rrTr.RemoteFraction())
	}
}
