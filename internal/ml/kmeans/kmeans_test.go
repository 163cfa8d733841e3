package kmeans

import (
	"testing"

	"db4ml/internal/exec"
	"db4ml/internal/txn"
)

// newPool starts a worker pool that is closed when the test ends.
func newPool(t *testing.T, cfg exec.Config) *exec.Pool {
	t.Helper()
	p, err := exec.NewPool(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

func TestGaussianMixtureShapes(t *testing.T) {
	pts, labels, centers := GaussianMixture(500, 3, 4, 0.5, 1)
	if len(pts) != 500 || len(labels) != 500 || len(centers) != 3 {
		t.Fatalf("shapes: %d/%d/%d", len(pts), len(labels), len(centers))
	}
	for _, p := range pts {
		if len(p) != 4 {
			t.Fatal("point dim wrong")
		}
	}
	for _, l := range labels {
		if l < 0 || l >= 3 {
			t.Fatal("label out of range")
		}
	}
	// Determinism.
	pts2, _, _ := GaussianMixture(500, 3, 4, 0.5, 1)
	if pts[0][0] != pts2[0][0] {
		t.Fatal("not deterministic")
	}
}

func TestLoadTablesShape(t *testing.T) {
	pts, _, _ := GaussianMixture(100, 4, 3, 0.3, 2)
	mgr := txn.NewManager()
	tables, err := LoadTables(mgr, pts, 4)
	if err != nil {
		t.Fatal(err)
	}
	if tables.Points.NumRows() != 100 || tables.Centroids.NumRows() != 4 {
		t.Fatalf("rows: %d/%d", tables.Points.NumRows(), tables.Centroids.NumRows())
	}
	if tables.Dim != 3 || tables.K != 4 {
		t.Fatalf("dims: %d/%d", tables.Dim, tables.K)
	}
	// Centroids seeded from the first k points.
	p, _ := tables.Centroids.Read(0, mgr.Stable())
	if p.Float64(colX0) != pts[0][0] {
		t.Fatal("centroid 0 not seeded from point 0")
	}
}

func TestLoadTablesErrors(t *testing.T) {
	mgr := txn.NewManager()
	if _, err := LoadTables(mgr, nil, 2); err == nil {
		t.Fatal("empty points accepted")
	}
	pts, _, _ := GaussianMixture(10, 2, 2, 0.1, 3)
	if _, err := LoadTables(mgr, pts, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := LoadTables(mgr, pts, 11); err == nil {
		t.Fatal("k>n accepted")
	}
	bad := [][]float64{{1, 2}, {1}}
	if _, err := LoadTables(mgr, bad, 1); err == nil {
		t.Fatal("ragged points accepted")
	}
}

func TestClusteringRecoversWellSeparatedClusters(t *testing.T) {
	const k = 3
	pts, trueLabels, _ := GaussianMixture(1200, k, 2, 0.4, 7)
	mgr := txn.NewManager()
	tables, err := LoadTables(mgr, pts, k)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(mgr, tables, Config{
		Pool:   newPool(t, exec.Config{Workers: 4}),
		Epochs: 8, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Well-separated clusters: assignments must be pure — every true
	// cluster maps to exactly one learned centroid.
	mapTo := map[int]int{}
	agree := 0
	for i, l := range trueLabels {
		got := res.Assign[i]
		if want, ok := mapTo[l]; !ok {
			mapTo[l] = got
			agree++
		} else if want == got {
			agree++
		}
	}
	purity := float64(agree) / float64(len(pts))
	if purity < 0.97 {
		t.Fatalf("purity = %v", purity)
	}
	if len(mapTo) != k {
		t.Fatalf("true clusters map to %d centroids", len(mapTo))
	}
	if res.Inertia <= 0 {
		t.Fatal("inertia not computed")
	}
}

func TestInertiaImprovesOverSeeding(t *testing.T) {
	pts, _, _ := GaussianMixture(800, 4, 3, 0.5, 11)
	mgr := txn.NewManager()
	tables, err := LoadTables(mgr, pts, 4)
	if err != nil {
		t.Fatal(err)
	}
	short, err := Run(mgr, tables, Config{Pool: newPool(t, exec.Config{Workers: 2}), Epochs: 1, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	// Fresh tables for the longer run (the first uber committed).
	mgr2 := txn.NewManager()
	tables2, err := LoadTables(mgr2, pts, 4)
	if err != nil {
		t.Fatal(err)
	}
	long, err := Run(mgr2, tables2, Config{Pool: newPool(t, exec.Config{Workers: 2}), Epochs: 12, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if long.Inertia > short.Inertia*1.05 {
		t.Fatalf("more epochs worsened inertia: %v -> %v", short.Inertia, long.Inertia)
	}
}

func TestResultCommitted(t *testing.T) {
	pts, _, _ := GaussianMixture(200, 2, 2, 0.3, 5)
	mgr := txn.NewManager()
	tables, err := LoadTables(mgr, pts, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(mgr, tables, Config{Pool: newPool(t, exec.Config{Workers: 2}), Epochs: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	p, ok := tables.Centroids.Read(0, res.CommitTS)
	if !ok {
		t.Fatal("centroid unreadable at commit ts")
	}
	if p.Float64(colX0) != res.Centroids[0][0] {
		t.Fatal("committed centroid differs from result")
	}
}
