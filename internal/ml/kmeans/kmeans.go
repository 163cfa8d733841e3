// Package kmeans implements mini-batch k-means clustering as user-defined
// iterative transactions — a third use case demonstrating that DB4ML's
// programming model covers more than the paper's two examples (Section 2.3
// claims "a wide class of ML algorithms"; unsupervised clustering is one
// of the classes its introduction names).
//
// Data model: a Point table (PointID, X0..Xd-1) and a Centroid table
// (CentroidID, Count, X0..Xd-1). One sub-transaction per worker owns a
// partition of the points; each Execute pass assigns every point of a
// random mini-batch to its nearest centroid and moves that centroid toward
// the point with the standard 1/count learning rate (Bottou & Bengio's
// online k-means). Centroids are multi-writer state, updated through the
// asynchronous isolation level exactly like Hogwild!'s parameter vector.
package kmeans

import (
	"fmt"
	"math"
	"math/rand"

	"db4ml/internal/exec"
	"db4ml/internal/isolation"
	"db4ml/internal/itx"
	"db4ml/internal/storage"
	"db4ml/internal/table"
	"db4ml/internal/txn"
)

// Centroid table column layout: CentroidID, Count, then Dim coordinates.
const (
	ColCentroidID = 0
	ColCount      = 1
	colX0         = 2
)

// Tables bundles the k-means data model.
type Tables struct {
	Points    *table.Table
	Centroids *table.Table
	// Data holds the raw coordinates referenced by PointID (the same
	// opaque-payload indirection the SGD use case uses for features).
	Data [][]float64
	Dim  int
	K    int
}

// LoadTables materializes points and k centroids. Centroids are seeded
// with the first k points (deterministic, standard Forgy-on-shuffled-data
// when the caller shuffles).
func LoadTables(mgr *txn.Manager, points [][]float64, k int) (*Tables, error) {
	if len(points) == 0 {
		return nil, fmt.Errorf("kmeans: no points")
	}
	if k < 1 || k > len(points) {
		return nil, fmt.Errorf("kmeans: k=%d out of range", k)
	}
	dim := len(points[0])
	ptCols := make([]table.Column, dim+1)
	ptCols[0] = table.Column{Name: "PointID", Type: table.Int64}
	for d := 0; d < dim; d++ {
		ptCols[d+1] = table.Column{Name: fmt.Sprintf("X%d", d), Type: table.Float64}
	}
	ptSchema, err := table.NewSchema(ptCols...)
	if err != nil {
		return nil, err
	}
	cCols := make([]table.Column, dim+2)
	cCols[0] = table.Column{Name: "CentroidID", Type: table.Int64}
	cCols[1] = table.Column{Name: "Count", Type: table.Float64}
	for d := 0; d < dim; d++ {
		cCols[d+2] = table.Column{Name: fmt.Sprintf("X%d", d), Type: table.Float64}
	}
	cSchema, err := table.NewSchema(cCols...)
	if err != nil {
		return nil, err
	}
	pts := table.New("Point", ptSchema)
	cts := table.New("Centroid", cSchema)
	var loadErr error
	mgr.PublishAt(func(ts storage.Timestamp) {
		p := ptSchema.NewPayload()
		for i, x := range points {
			if len(x) != dim {
				loadErr = fmt.Errorf("kmeans: point %d has dim %d, want %d", i, len(x), dim)
				return
			}
			p.SetInt64(0, int64(i))
			for d, v := range x {
				p.SetFloat64(d+1, v)
			}
			if _, err := pts.Append(ts, p); err != nil {
				loadErr = err
				return
			}
		}
		c := cSchema.NewPayload()
		for j := 0; j < k; j++ {
			c.SetInt64(ColCentroidID, int64(j))
			c.SetFloat64(ColCount, 1)
			for d, v := range points[j] {
				c.SetFloat64(colX0+d, v)
			}
			if _, err := cts.Append(ts, c); err != nil {
				loadErr = err
				return
			}
		}
	})
	if loadErr != nil {
		return nil, loadErr
	}
	return &Tables{Points: pts, Centroids: cts, Data: points, Dim: dim, K: k}, nil
}

// Config tunes one k-means uber-transaction.
type Config struct {
	// Exec configures the job (batch size, caps, deadline, telemetry).
	Exec exec.JobConfig
	// Pool is the worker pool Run submits the job to; its worker count is
	// the number of sub-transactions. Run returns exec.ErrNoPool without
	// one.
	Pool *exec.Pool
	// Epochs is the number of passes each sub-transaction makes over its
	// partition; defaults to 10.
	Epochs int
	// BatchFraction is the share of a sub-transaction's points sampled
	// per epoch; defaults to 1 (full pass in random order).
	BatchFraction float64
	Seed          int64
}

func (c Config) withDefaults() Config {
	if c.Epochs <= 0 {
		c.Epochs = 10
	}
	if c.BatchFraction <= 0 || c.BatchFraction > 1 {
		c.BatchFraction = 1
	}
	return c
}

// Result of a k-means run.
type Result struct {
	// Centroids are the committed cluster centers.
	Centroids [][]float64
	// Assign maps each point to its nearest final centroid.
	Assign []int
	// Inertia is the final sum of squared distances to assigned centers.
	Inertia float64
	Stats   exec.Stats
	// CommitTS is the uber-transaction's commit timestamp.
	CommitTS storage.Timestamp
}

// sub processes one partition of the points (tx_state: cached centroid
// record handles and its point ids).
type sub struct {
	tables *Tables
	points []int // point ids in this partition
	epochs int
	frac   float64
	seed   int64

	recs []*storage.IterativeRecord
	rng  *rand.Rand
	x    []float64 // scratch centroid coordinates
}

func (s *sub) Begin(ctx *itx.Ctx) {
	s.recs = make([]*storage.IterativeRecord, s.tables.K)
	for j := range s.recs {
		s.recs[j] = s.tables.Centroids.IterRecord(table.RowID(j))
	}
	s.rng = rand.New(rand.NewSource(s.seed))
	s.x = make([]float64, s.tables.Dim)
}

func (s *sub) Execute(ctx *itx.Ctx) {
	n := int(float64(len(s.points)) * s.frac)
	if n < 1 {
		n = 1
	}
	for i := 0; i < n; i++ {
		p := s.tables.Data[s.points[s.rng.Intn(len(s.points))]]
		best, bestDist := 0, math.Inf(1)
		for j, rec := range s.recs {
			dist := 0.0
			for d := 0; d < s.tables.Dim; d++ {
				delta := p[d] - math.Float64frombits(ctx.ReadCol(rec, colX0+d))
				dist += delta * delta
			}
			if dist < bestDist {
				best, bestDist = j, dist
			}
		}
		rec := s.recs[best]
		count := math.Float64frombits(ctx.ReadCol(rec, ColCount)) + 1
		ctx.WriteCol(rec, ColCount, math.Float64bits(count))
		eta := 1 / count
		for d := 0; d < s.tables.Dim; d++ {
			cur := math.Float64frombits(ctx.ReadCol(rec, colX0+d))
			ctx.WriteCol(rec, colX0+d, math.Float64bits(cur+eta*(p[d]-cur)))
		}
	}
}

func (s *sub) Validate(ctx *itx.Ctx) itx.Action {
	if int(ctx.Iteration())+1 >= s.epochs {
		return itx.Done
	}
	return itx.Commit
}

// Run executes mini-batch k-means as one uber-transaction and commits the
// centroids.
func Run(mgr *txn.Manager, tables *Tables, cfg Config) (Result, error) {
	if cfg.Pool == nil {
		return Result{}, exec.ErrNoPool
	}
	cfg = cfg.withDefaults()
	iso := isolation.Options{Level: isolation.Asynchronous}
	u, err := itx.BeginUber(mgr, iso)
	if err != nil {
		return Result{}, err
	}
	if err := u.Attach(tables.Centroids, nil, u.DefaultVersions()); err != nil {
		_ = u.Abort()
		return Result{}, err
	}
	workers := cfg.Pool.Workers()
	if workers > len(tables.Data) {
		workers = len(tables.Data)
	}
	per := len(tables.Data) / workers
	subs := make([]itx.Sub, workers)
	for w := 0; w < workers; w++ {
		lo, hi := w*per, (w+1)*per
		if w == workers-1 {
			hi = len(tables.Data)
		}
		ids := make([]int, hi-lo)
		for i := range ids {
			ids[i] = lo + i
		}
		subs[w] = &sub{
			tables: tables, points: ids,
			epochs: cfg.Epochs, frac: cfg.BatchFraction, seed: cfg.Seed + int64(w),
		}
	}
	j, err := cfg.Pool.Submit(subs, iso, cfg.Exec)
	if err != nil {
		_ = u.Abort()
		return Result{}, err
	}
	stats, err := j.Wait()
	if err != nil {
		_ = u.Abort()
		return Result{}, err
	}
	ts, err := u.Commit()
	if err != nil {
		return Result{}, err
	}
	return finish(tables, stats, ts)
}

func finish(tables *Tables, stats exec.Stats, ts storage.Timestamp) (Result, error) {
	res := Result{Stats: stats, CommitTS: ts}
	res.Centroids = make([][]float64, tables.K)
	for j := 0; j < tables.K; j++ {
		p, ok := tables.Centroids.Read(table.RowID(j), ts)
		if !ok {
			return Result{}, fmt.Errorf("kmeans: centroid %d unreadable after commit", j)
		}
		c := make([]float64, tables.Dim)
		for d := range c {
			c[d] = p.Float64(colX0 + d)
		}
		res.Centroids[j] = c
	}
	res.Assign = make([]int, len(tables.Data))
	for i, x := range tables.Data {
		best, bestDist := 0, math.Inf(1)
		for j, c := range res.Centroids {
			dist := 0.0
			for d := range c {
				delta := x[d] - c[d]
				dist += delta * delta
			}
			if dist < bestDist {
				best, bestDist = j, dist
			}
		}
		res.Assign[i] = best
		res.Inertia += bestDist
	}
	return res, nil
}

// GaussianMixture generates n points from k well-separated spherical
// Gaussians in dim dimensions, returning the points, the true component of
// each point, and the true centers. Deterministic for a given seed.
func GaussianMixture(n, k, dim int, spread float64, seed int64) (points [][]float64, labels []int, centers [][]float64) {
	rng := rand.New(rand.NewSource(seed))
	centers = make([][]float64, k)
	for j := range centers {
		c := make([]float64, dim)
		for d := range c {
			c[d] = float64(j*10) + rng.Float64() // separated along every axis
		}
		centers[j] = c
	}
	points = make([][]float64, n)
	labels = make([]int, n)
	for i := range points {
		j := rng.Intn(k)
		labels[i] = j
		p := make([]float64, dim)
		for d := range p {
			p[d] = centers[j][d] + rng.NormFloat64()*spread
		}
		points[i] = p
	}
	return points, labels, centers
}
