package pagerank

import (
	"hash/fnv"
	"math"
	"strconv"
	"strings"
	"testing"

	"db4ml/internal/exec"
	"db4ml/internal/graph"
	"db4ml/internal/isolation"
	"db4ml/internal/storage"
	"db4ml/internal/table"
)

func rmat(scale int) *graph.Graph { return graph.RMAT(scale, 10, 0.57, 0.19, 0.19, 7) }

// setupConfig is the normalized synchronous configuration the set-up tests
// build subs with.
func setupConfig() Config {
	return Config{Isolation: isolation.Options{Level: isolation.Synchronous}}.Normalized()
}

// TestBuildSubsMatchesIndexProbe: the CSR built from one edge scan gives
// every node exactly the in-neighbor rows and out-degrees the paper's
// get_neighbors probe gives — the NID_To index lookup filtered to rows
// visible at the snapshot — in the same order, so every Equation (1) sum
// adds the same terms in the same sequence.
func TestBuildSubsMatchesIndexProbe(t *testing.T) {
	g := rmat(9)
	mgr, node, edge := load(t, g)
	// Tombstone one edge so visibility matters to both sides.
	tx := mgr.Begin()
	if err := tx.Delete(edge, 3); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	ts := mgr.Stable()
	subs, _, err := BuildSubs(node, edge, ts, setupConfig())
	if err != nil {
		t.Fatal(err)
	}
	outDeg := make([]float64, g.NumNodes())
	edge.Scan(ts, func(_ table.RowID, p storage.Payload) bool {
		outDeg[p.Int64(0)]++
		return true
	})
	for v, s := range subs {
		rows, err := edge.Lookup("NID_To", int64(v))
		if err != nil {
			t.Fatal(err)
		}
		var wantRows []table.RowID
		var wantDegs []float64
		for _, r := range rows {
			p, ok := edge.Read(r, ts)
			if !ok {
				continue
			}
			wantRows = append(wantRows, table.RowID(p.Int64(0)))
			wantDegs = append(wantDegs, outDeg[p.Int64(0)])
		}
		got := s.(*sub)
		if len(got.inRows) != len(wantRows) {
			t.Fatalf("node %d: %d in-neighbors, index probe has %d", v, len(got.inRows), len(wantRows))
		}
		for i := range wantRows {
			if got.inRows[i] != wantRows[i] || got.outDegs[i] != wantDegs[i] {
				t.Fatalf("node %d in-edge %d: (%d, deg %v), index probe (%d, deg %v)",
					v, i, got.inRows[i], got.outDegs[i], wantRows[i], wantDegs[i])
			}
		}
	}
}

// TestBuildSubsRejectsDanglingEdges: an edge naming a node outside the Node
// table is an error naming the edge row — not an index panic (bad source)
// and not a silently dropped edge whose mass still counts in its source's
// out-degree (bad target).
func TestBuildSubsRejectsDanglingEdges(t *testing.T) {
	for _, bad := range [][2]int64{{999, 0}, {-1, 0}, {0, 999}, {0, -5}} {
		mgr, node, edge := load(t, rmat(4))
		var row table.RowID
		mgr.PublishAt(func(ts storage.Timestamp) {
			var err error
			if row, err = edge.Append(ts, storage.Payload{uint64(bad[0]), uint64(bad[1])}); err != nil {
				t.Fatal(err)
			}
		})
		_, _, err := BuildSubs(node, edge, mgr.Stable(), setupConfig())
		if err == nil || !strings.Contains(err.Error(), "edge row ") {
			t.Fatalf("edge %d -> %d: err = %v, want an error naming the edge row", bad[0], bad[1], err)
		}
		if want := "row " + strconv.FormatUint(uint64(row), 10); !strings.Contains(err.Error(), want) {
			t.Fatalf("edge %d -> %d: err = %v, want it to name %q", bad[0], bad[1], err, want)
		}
	}
}

// TestSyncRanksBitIdenticalToIndexProbe pins the synchronous ranks of a
// fixed RMAT graph to the bits the per-node NID_To index probe produced:
// the one-scan set-up must not reorder a single floating-point addition.
func TestSyncRanksBitIdenticalToIndexProbe(t *testing.T) {
	mgr, node, edge := load(t, rmat(10))
	res, err := Run(mgr, node, edge, Config{
		Exec:      exec.JobConfig{MaxIterations: 20},
		Pool:      newPool(t, exec.Config{Workers: 2}),
		Isolation: isolation.Options{Level: isolation.Synchronous},
	})
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var b [8]byte
	for _, r := range res.Ranks {
		bits := math.Float64bits(r)
		for i := range b {
			b[i] = byte(bits >> (8 * i))
		}
		h.Write(b[:])
	}
	const want = 0xca2c05436df96151
	if got := h.Sum64(); got != want {
		t.Fatalf("rank bits hash %#x, want %#x", got, uint64(want))
	}
}

// TestBuildSubsAllocations: set-up allocates per job, not per node or edge.
func TestBuildSubsAllocations(t *testing.T) {
	var counts []float64
	for _, scale := range []int{8, 12} {
		mgr, node, edge := load(t, rmat(scale))
		ts := mgr.Stable()
		cfg := setupConfig()
		n := testing.AllocsPerRun(3, func() {
			if _, _, err := BuildSubs(node, edge, ts, cfg); err != nil {
				t.Fatal(err)
			}
		})
		if n > 24 {
			t.Fatalf("BuildSubs on %d nodes: %v allocations, want <= 24", node.NumRows(), n)
		}
		counts = append(counts, n)
	}
	if d := math.Abs(counts[1] - counts[0]); d > 2 {
		t.Fatalf("BuildSubs allocations grow with the graph: %v at 256 nodes, %v at 4096", counts[0], counts[1])
	}
}
