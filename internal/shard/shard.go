// Package shard implements DB4ML's shard-per-node scale-out: N fully
// independent kernel instances — each with its own transaction manager,
// execution pool, and local tables — in a Cluster sharing one timestamp
// oracle, plus placement:
//
//   - a Router (router.go) that generalizes the NUMA-region placement
//     model one level up, mapping global row ids to owning shards with the
//     same partition schemes tables use for region placement;
//   - a sharded Table (table.go) that splits one logical ML-table into
//     per-shard local tables plus a chain-sharing global view, so every
//     shard can read any row through MVCC without copying state.
//
// Nothing here runs an uber-transaction: a job spanning shards is one
// exec.StartUber with a part per shard, committed by exec.UberRun.Finish
// in two phases at one timestamp drawn from the shared oracle, which is
// what makes that timestamp meaningful on every shard and lets
// cross-shard reads reason about staleness in one clock. Sub-transactions
// run on their shard's pool against their shard's manager; only the
// begin and commit edges cross shards.
//
// Isolation across shards is *bounded-staleness by construction*: each
// shard pins and publishes its own snapshot watermark, so a reader on
// shard A observes shard B's rows at B's watermark, not at a global one.
// The invariant harness in internal/check (dsweep.go) re-proves the
// contracts under this model rather than assuming them.
package shard

import (
	"fmt"

	"db4ml/internal/exec"
	"db4ml/internal/storage"
	"db4ml/internal/txn"
)

// Kernel is one shard: an independent kernel instance with its own
// transaction manager (own commit lock, stable watermark, snapshot
// registry) and its own worker pool. Only the timestamp oracle is shared
// with the other shards of a Cluster.
type Kernel struct {
	mgr  *txn.Manager
	pool *exec.Pool
}

// Mgr returns the shard's transaction manager.
func (k *Kernel) Mgr() *txn.Manager { return k.mgr }

// Pool returns the shard's worker pool.
func (k *Kernel) Pool() *exec.Pool { return k.pool }

// Cluster is a set of shard kernels sharing one timestamp oracle.
type Cluster struct {
	oracle  *storage.Oracle
	kernels []*Kernel
}

// NewCluster starts n shard kernels, each with its own worker pool built
// from cfg (only the pool-level fields are used: Workers, Topology,
// DisableWorkStealing, Chaos). Workers is the per-shard pool size, not a
// total. Close the cluster to stop every pool.
func NewCluster(n int, cfg exec.Config) (*Cluster, error) {
	if n < 1 {
		return nil, fmt.Errorf("shard: cluster needs at least 1 shard, got %d", n)
	}
	c := &Cluster{oracle: &storage.Oracle{}, kernels: make([]*Kernel, n)}
	for i := 0; i < n; i++ {
		pool, err := exec.NewPool(cfg)
		if err != nil {
			for j := 0; j < i; j++ {
				c.kernels[j].pool.Close()
			}
			return nil, err
		}
		c.kernels[i] = &Kernel{mgr: txn.NewManagerWithOracle(c.oracle), pool: pool}
	}
	return c, nil
}

// Shards returns the number of shard kernels.
func (c *Cluster) Shards() int { return len(c.kernels) }

// Kernel returns shard i.
func (c *Cluster) Kernel(i int) *Kernel { return c.kernels[i] }

// Close stops every shard's worker pool, draining in-flight jobs.
func (c *Cluster) Close() {
	for _, k := range c.kernels {
		k.pool.Close()
	}
}

// PublishAll runs one globally atomic publish across every shard: it
// prepares all shard managers in shard-id order (so concurrent PublishAll
// and coordinator commits cannot deadlock), draws a single timestamp from
// the shared oracle, and publishes on each shard at that timestamp. Either
// every shard's rows become visible at ts or — on a publish error — the
// loaded prefix remains, exactly like the single-kernel BulkLoad contract.
// Bulk loads use it so a sharded table's initial state exists at one
// timestamp on every shard.
func (c *Cluster) PublishAll(publish func(shard int, ts storage.Timestamp) error) (storage.Timestamp, error) {
	preps := make([]*txn.Prepared, len(c.kernels))
	for i, k := range c.kernels {
		preps[i] = k.mgr.Prepare()
	}
	ts := c.oracle.Next()
	return ts, c.commitAll(preps, ts, publish)
}

// PublishAllAt is PublishAll at a caller-chosen timestamp — the WAL replay
// path, which must re-publish recovered state at each record's original
// commit timestamp rather than drawing fresh ones. The timestamp must be at
// or above every shard's stable watermark (replay applies records in LSN
// order, so it is).
func (c *Cluster) PublishAllAt(ts storage.Timestamp, publish func(shard int, ts storage.Timestamp) error) error {
	preps := make([]*txn.Prepared, len(c.kernels))
	for i, k := range c.kernels {
		preps[i] = k.mgr.Prepare()
	}
	c.oracle.AdvanceTo(ts)
	return c.commitAll(preps, ts, publish)
}

// commitAll publishes every prepared shard at ts, in shard-id order.
func (c *Cluster) commitAll(preps []*txn.Prepared, ts storage.Timestamp, publish func(shard int, ts storage.Timestamp) error) error {
	var firstErr error
	for i, p := range preps {
		shard := i
		p.CommitAt(ts, func(ts storage.Timestamp) {
			if err := publish(shard, ts); err != nil && firstErr == nil {
				firstErr = err
			}
		})
	}
	return firstErr
}
