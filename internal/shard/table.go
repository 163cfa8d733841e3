package shard

import (
	"fmt"
	"sync"

	"db4ml/internal/partition"
	"db4ml/internal/storage"
	"db4ml/internal/table"
)

// Table is one logical ML-table split across a cluster: per-shard local
// tables holding the rows each shard owns, plus a global *view* table that
// adopts every local row's version chain in global row-id order. The view
// shares storage with the locals (table.AdoptChain), so:
//
//   - global row id g on the view resolves the same MVCC chain as the
//     owning shard's local row — a version (or iterative record) published
//     by the owner is visible through the view with no copying and no
//     invalidation protocol;
//   - ML algorithms written against a single table (PageRank's neighbor
//     reads, SGD's shared model) run unchanged against the view, while
//     their writes land on records owned by — and attached through — the
//     shard that runs them.
//
// Loads go through Load, which places rows with the router and publishes
// every shard at one shared-oracle timestamp (Cluster.PublishAll), so the
// table's state always exists at a single globally comparable timestamp.
//
// On a 1-shard router the table is its own view: View() == Local(0), named
// after the table, with no placement arrays (row g is local row g), and a
// load appends straight to it — so it accepts OLTP inserts like any table.
type Table struct {
	name   string
	schema table.Schema
	router *Router

	locals []*table.Table
	view   *table.Table

	mu      sync.RWMutex
	shardOf []int         // global row -> owning shard; nil on one shard
	localOf []table.RowID // global row -> row id within the owner's local table
}

// NewTable creates an empty sharded table routed by router. The view and
// the per-shard locals share one schema; on more than one shard the locals
// are named "<name>@s<i>" so per-shard telemetry and errors identify the
// shard.
func NewTable(name string, schema table.Schema, router *Router) *Table {
	t := &Table{
		name:   name,
		schema: schema,
		router: router,
		locals: make([]*table.Table, router.Shards()),
		view:   table.New(name, schema),
	}
	if t.one() {
		t.locals[0] = t.view
		return t
	}
	for i := range t.locals {
		t.locals[i] = table.New(fmt.Sprintf("%s@s%d", name, i), schema)
	}
	return t
}

// one reports whether the table lives on one shard, where it is its own
// view.
func (t *Table) one() bool { return len(t.locals) == 1 }

// Name returns the logical table name.
func (t *Table) Name() string { return t.name }

// Schema returns the table schema.
func (t *Table) Schema() table.Schema { return t.schema }

// View returns the global view table: row id g is global row g, backed by
// the owning shard's version chain. Use it for reads, scans, query plans,
// and for building sub-transactions that address rows globally. On more
// than one shard it refuses Append — rows are created only through Load.
func (t *Table) View() *table.Table { return t.view }

// Local returns shard i's local table — the table that shard's
// uber-transaction attachments and GC passes operate on.
func (t *Table) Local(i int) *table.Table { return t.locals[i] }

// NumRows returns the number of global rows.
func (t *Table) NumRows() int {
	if t.one() {
		return t.view.NumRows()
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.shardOf)
}

// Mutations sums the view's mutation counter with the locals': commits
// bump the owning locals' counters (an uber-transaction attaches locals)
// while loads bump the view's, so the sum moves exactly when any of them
// does. It is the checkpointer's change detector (table.Table.Mutations).
func (t *Table) Mutations() uint64 {
	if t.one() {
		return t.view.Mutations()
	}
	muts := t.view.Mutations()
	for _, l := range t.locals {
		muts += l.Mutations()
	}
	return muts
}

// Locate maps a global row id to its owning shard and the row's id within
// that shard's local table. ok is false for out-of-range rows.
func (t *Table) Locate(row table.RowID) (shard int, local table.RowID, ok bool) {
	if t.one() {
		return 0, row, int(row) < t.view.NumRows()
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	if int(row) >= len(t.shardOf) {
		return 0, 0, false
	}
	return t.shardOf[row], t.localOf[row], true
}

// ShardOf returns the shard owning the given global row, or -1 when the
// row does not exist.
func (t *Table) ShardOf(row table.RowID) int {
	if s, _, ok := t.Locate(row); ok {
		return s
	}
	return -1
}

// LocalRows translates a set of global row ids into per-shard local row-id
// lists (index = shard; empty slices for shards owning none of the rows).
// A nil input means "all rows" and returns nil for every shard — the
// all-rows convention attachments use.
func (t *Table) LocalRows(rows []table.RowID) ([][]table.RowID, error) {
	out := make([][]table.RowID, t.router.Shards())
	if rows == nil {
		return out, nil
	}
	for _, g := range rows {
		s, l, ok := t.Locate(g)
		if !ok {
			return nil, fmt.Errorf("shard: table %s has no row %d", t.name, g)
		}
		out[s] = append(out[s], l)
	}
	return out, nil
}

// Load appends rows across the cluster in one globally atomic publish:
// rows are routed to their owning shards (global row id = current row
// count + position), appended to the local tables, published everywhere at
// one shared-oracle timestamp, and adopted into the view in global order.
// It returns the timestamp and the global id of the first loaded row, both
// assigned under the load's lock, so concurrent loads report disjoint
// ranges.
//
// Loading into an empty Range-sharded table first repartitions the router
// to the final row count, so the ranges are contiguous over the whole
// load. Appending to a non-empty Range-sharded table keeps the existing
// placement — physically placed rows cannot move — and overflow rows clamp
// into the last shard; prefer one Load per Range table.
func (t *Table) Load(c *Cluster, rows []storage.Payload) (ts storage.Timestamp, first int, err error) {
	for gi, p := range rows {
		if p == nil {
			return 0, 0, fmt.Errorf("shard: table %s: nil row %d", t.name, gi)
		}
	}
	if err := t.fits(c); err != nil {
		return 0, 0, err
	}
	if t.one() {
		// The commit lock orders this load against every other append to
		// the table (loads and OLTP inserts alike).
		ts, err = c.PublishAll(func(_ int, ts storage.Timestamp) error {
			first = t.view.NumRows()
			for _, p := range rows {
				if _, err := t.view.Append(ts, p); err != nil {
					return err
				}
			}
			return nil
		})
		return ts, first, err
	}
	return t.load(c, rows, c.PublishAll)
}

// LoadAt is Load at a caller-chosen timestamp (Cluster.PublishAllAt) — the
// recovery path, which replays a logged bulk load at its original commit
// timestamp so the recovered table is bit-identical to the pre-crash one.
// It takes ownership of the payloads. A nil row is an absent slot (a row
// deleted before a checkpoint, or a gap a lost load left): it gets a
// tombstone, so later rows keep their ids.
func (t *Table) LoadAt(c *Cluster, ts storage.Timestamp, rows []storage.Payload) error {
	if err := t.fits(c); err != nil {
		return err
	}
	if t.one() {
		return c.PublishAllAt(ts, func(_ int, ts storage.Timestamp) error {
			_, err := t.view.AppendOwned(ts, rows)
			return err
		})
	}
	_, _, err := t.load(c, rows, func(pub func(int, storage.Timestamp) error) (storage.Timestamp, error) {
		return ts, c.PublishAllAt(ts, pub)
	})
	return err
}

// fits rejects a cluster whose shard count is not the table's.
func (t *Table) fits(c *Cluster) error {
	if c.Shards() != t.router.Shards() {
		return fmt.Errorf("shard: table %s is sharded %d ways, cluster has %d shards",
			t.name, t.router.Shards(), c.Shards())
	}
	return nil
}

func (t *Table) load(c *Cluster, rows []storage.Payload,
	publishAll func(func(int, storage.Timestamp) error) (storage.Timestamp, error)) (storage.Timestamp, int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	base := len(t.shardOf)
	if base == 0 && t.router.Partitioner().Scheme() == partition.Range {
		t.router.Repartition(partition.Range, uint64(len(rows)))
	}
	// One placement snapshot for the whole load: a concurrent Repartition
	// must not split the load across two mappings.
	part := t.router.Partitioner()

	owners := make([]int, len(rows))
	perShard := make([][]storage.Payload, c.Shards())
	for gi, p := range rows {
		s := part.Of(uint64(base + gi))
		owners[gi] = s
		perShard[s] = append(perShard[s], p)
	}

	locals := make([]table.RowID, len(rows))
	next := make([]int, c.Shards())
	ts, err := publishAll(func(shard int, ts storage.Timestamp) error {
		for i, p := range perShard[shard] {
			var e error
			if p == nil {
				_, e = t.locals[shard].AppendOwned(ts, perShard[shard][i:i+1])
			} else {
				_, e = t.locals[shard].Append(ts, p)
			}
			if e != nil {
				return e
			}
		}
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	baseLocal := make([]int, c.Shards())
	for s := range baseLocal {
		baseLocal[s] = t.locals[s].NumRows() - len(perShard[s])
	}
	for gi := range rows {
		s := owners[gi]
		locals[gi] = table.RowID(baseLocal[s] + next[s])
		next[s]++
	}

	for gi := range rows {
		s := owners[gi]
		chain := t.locals[s].Chain(locals[gi])
		if chain == nil {
			return 0, 0, fmt.Errorf("shard: table %s: loaded row %d has no chain on shard %d", t.name, base+gi, s)
		}
		if _, err := t.view.AdoptChain(chain); err != nil {
			return 0, 0, err
		}
		t.shardOf = append(t.shardOf, s)
		t.localOf = append(t.localOf, locals[gi])
	}
	return ts, base, nil
}
