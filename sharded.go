package db4ml

import (
	"fmt"

	"db4ml/internal/introspect"
	"db4ml/internal/partition"
	"db4ml/internal/shard"
	"db4ml/internal/table"
)

// This file is what a database of more than one kernel adds: placement.
// CreateTable returns a table's global VIEW, whose row ids are global and
// whose version chains are the owning shards' locals'; rows are routed to
// shards by the configured scheme, and ML sub-transaction i runs on the
// shard owning its rows (MLRun.ShardOf, defaulting to "sub i owns global
// row i of the first attached table" — the built-in algorithms'
// convention, so PageRank and SGD run unchanged). See DESIGN.md §15.

// ShardedTable exposes a table's placement surface: View, Local, ShardOf,
// Locate, LocalRows. CreateTable registers one and returns its View;
// retrieve the full object with DB.ShardedTable. On one kernel the table
// is its own view and every row lives on shard 0.
type ShardedTable = shard.Table

// Partitioning schemes for WithShardScheme (the same schemes that place
// rows across NUMA regions inside one kernel; see internal/partition).
const (
	ShardRange      = partition.Range
	ShardRoundRobin = partition.RoundRobin
	ShardHash       = partition.Hash
)

// WithShards sets the number of kernels Open builds (default 1). Each is a
// full kernel instance with its own worker pool of WithWorkers workers —
// total worker count scales with the shard count.
func WithShards(n int) Option { return func(c *openConfig) { c.shards = n } }

// WithShardScheme sets the row-placement scheme for tables created on a
// database of more than one kernel (default ShardHash). ShardRange keeps
// contiguous row ranges per shard (best for range scans), ShardRoundRobin
// interleaves (best for load balance), ShardHash scatters.
func WithShardScheme(s partition.Scheme) Option {
	return func(c *openConfig) { c.shardScheme = s }
}

// ShardedDB is the database type's former name for a cluster.
//
// Deprecated: use DB; Open(WithShards(n)) builds a cluster.
type ShardedDB = DB

// OpenSharded opens a two-kernel database: Open(WithShards(2), opts...),
// where a WithShards in opts wins.
//
// Deprecated: use Open(WithShards(n)).
func OpenSharded(opts ...Option) *DB { return Open(append([]Option{WithShards(2)}, opts...)...) }

// Cluster exposes the underlying kernels for advanced uses (the experiment
// harness reads per-shard managers directly).
func (db *DB) Cluster() *shard.Cluster { return db.cluster }

// ShardedTable returns a table with its placement surface by name, or nil.
func (db *DB) ShardedTable(name string) *ShardedTable {
	db.tblMu.RLock()
	defer db.tblMu.RUnlock()
	return db.tables[name]
}

// shardedOf resolves a table CreateTable returned to its sharded table.
func (db *DB) shardedOf(tbl *Table) (*ShardedTable, error) {
	name := "<nil>"
	if tbl != nil {
		name = tbl.Name()
		if st := db.ShardedTable(name); st != nil && st.View() == tbl {
			return st, nil
		}
	}
	return nil, fmt.Errorf("db4ml: table %q is not a table of this database", name)
}

// split lays an ML run out across the shards: every attachment resolved
// to its sharded table and split into per-shard locals, and the
// sub-transactions grouped by placement. Every shard attaches (and votes
// in the two-phase commit) even when it runs no sub-transactions.
func (db *DB) split(run MLRun) ([][]Attachment, [][]IterativeTransaction, error) {
	if len(run.Attach) == 0 {
		return nil, nil, fmt.Errorf("db4ml: an ML run on several kernels must attach at least one table")
	}
	if run.Recorder != nil {
		// Every shard's pool numbers its sub-transactions from zero, so one
		// recorder shared by all shards would merge distinct subs.
		return nil, nil, fmt.Errorf("db4ml: MLRun.Recorder is not supported on several kernels")
	}
	n := db.cluster.Shards()
	var primary *ShardedTable
	attach := make([][]Attachment, n)
	for ai, a := range run.Attach {
		st, err := db.shardedOf(a.Table)
		if err != nil {
			return nil, nil, err
		}
		if ai == 0 {
			primary = st
		}
		locals, err := st.LocalRows(a.Rows)
		if err != nil {
			return nil, nil, err
		}
		for s := 0; s < n; s++ {
			attach[s] = append(attach[s], Attachment{Table: st.Local(s), Rows: locals[s], Versions: a.Versions})
		}
	}
	shardOf := run.ShardOf
	if shardOf == nil {
		shardOf = func(i int) int { return primary.ShardOf(RowID(i)) }
	}
	subs := make([][]IterativeTransaction, n)
	for i, sub := range run.Subs {
		s := shardOf(i)
		if s < 0 || s >= n {
			return nil, nil, fmt.Errorf("db4ml: sub-transaction %d routed to shard %d of %d (is the first attached table loaded?)", i, s, n)
		}
		subs[s] = append(subs[s], sub)
	}
	return attach, subs, nil
}

// rebindScan maps a scanned view table to a shard's local table for the
// scatter stage, or nil for tables this database does not hold.
func (db *DB) rebindScan(tbl *table.Table, s int) *table.Table {
	if st, err := db.shardedOf(tbl); err == nil {
		return st.Local(s)
	}
	return nil
}

// shardInfos assembles the /debug/shards table, one row per kernel, from
// each kernel's aggregator plus its live state.
func (db *DB) shardInfos() []introspect.ShardInfo {
	out := make([]introspect.ShardInfo, db.cluster.Shards())
	for s := range out {
		k := db.cluster.Kernel(s)
		out[s] = introspect.ShardInfo{
			Shard:       s,
			Workers:     k.Pool().Workers(),
			TraceEvents: db.tracers[s].Len(),
			Stable:      uint64(k.Mgr().Stable()),
			Counters:    db.aggs[s].Snapshot().Cumulative,
		}
	}
	return out
}
