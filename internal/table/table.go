package table

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"db4ml/internal/index"
	"db4ml/internal/partition"
	"db4ml/internal/storage"
)

// RowID identifies a row slot within one table. Row ids are dense and
// assigned in insertion order, so they double as positions for range
// partitioning.
type RowID uint64

// Table is one ML-table: an append-only array of MVCC version chains plus
// optional secondary indexes and a partitioning scheme for NUMA locality.
type Table struct {
	name   string
	schema Schema

	mu   sync.RWMutex
	rows []*storage.VersionChain

	idxMu   sync.RWMutex
	hashIdx map[string]*index.Hash
	treeIdx map[string]*index.BTree

	part partition.Partitioner

	// muts counts publishes that changed visible state — appends, adopted
	// chains, OLTP write publishes, iterative commits — and index
	// creations, whose definitions checkpoints persist too. The fuzzy
	// checkpointer uses it as a cheap change detector: a table whose counter
	// is unchanged since the last checkpoint pass has an identical visible
	// state at any later pinned snapshot, so its encoded section can be
	// reused instead of re-scanned. Bumps happen inside the publish critical
	// section (before the stable watermark advances), which is what makes
	// "counter read after pinning" a sound equality witness.
	muts atomic.Uint64

	// view marks a table assembled from other tables' version chains via
	// AdoptChain (the shard router's cross-shard read view). Views share
	// storage with their backing tables, so growing one independently with
	// Append would desynchronize the global row-id space from the shards.
	view bool
}

// New creates an empty table with the given schema, partitioned with a
// single partition until SetPartitioner is called.
func New(name string, schema Schema) *Table {
	return &Table{
		name:    name,
		schema:  schema,
		hashIdx: make(map[string]*index.Hash),
		treeIdx: make(map[string]*index.BTree),
		part:    partition.New(partition.Range, 1, 0),
	}
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the table schema.
func (t *Table) Schema() Schema { return t.schema }

// NumRows returns the number of row slots (including rows whose newest
// version may be invisible to a given snapshot).
func (t *Table) NumRows() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.rows)
}

// SetPartitioner installs the partitioning scheme used to map rows to NUMA
// regions. Call it after loading so Range partitioning knows the row count.
func (t *Table) SetPartitioner(p partition.Partitioner) { t.part = p }

// PartitionOf returns the NUMA partition owning row.
func (t *Table) PartitionOf(row RowID) int { return t.part.Of(uint64(row)) }

// Partitioner returns the current partitioning scheme.
func (t *Table) Partitioner() partition.Partitioner { return t.part }

// Append adds a new row whose first version is valid from ts, returning its
// RowID. Payload length must match the schema width; the payload is cloned.
// Hash and tree indexes are maintained for every indexed column.
func (t *Table) Append(ts storage.Timestamp, payload storage.Payload) (RowID, error) {
	if t.view {
		return 0, fmt.Errorf("table %s: Append on a view table; load rows through the owning shard", t.name)
	}
	if len(payload) != t.schema.Width() {
		return 0, fmt.Errorf("table %s: payload width %d, schema width %d", t.name, len(payload), t.schema.Width())
	}
	rec := storage.NewRecord(ts, payload.Clone())
	t.mu.Lock()
	id := RowID(len(t.rows))
	t.rows = append(t.rows, storage.NewVersionChain(rec))
	t.mu.Unlock()
	t.muts.Add(1)

	t.idxMu.RLock()
	for col, idx := range t.hashIdx {
		idx.Insert(payload.Int64(t.schema.MustCol(col)), uint64(id))
	}
	for col, idx := range t.treeIdx {
		idx.Insert(payload.Int64(t.schema.MustCol(col)), uint64(id))
	}
	t.idxMu.RUnlock()
	return id, nil
}

// AppendOwned is the bulk Append of recovery: it appends rows as new row
// slots whose first versions are valid from ts and returns the first
// slot's RowID. It takes ownership of the payloads (no clone), allocates
// the versions from one slab and the chains from another, and takes the
// row lock and bumps the mutation counter once for the whole batch;
// indexes are maintained as by Append. A nil row is an absent slot: it
// gets a tombstone version (Deleted, zero payload) and no index entry, so
// the rows after it keep their ids. The slabs live while any of their
// versions does, so reserve AppendOwned for rows that are not expected to
// be superseded and reclaimed one by one; loads whose first versions must
// stay individually freeable go through Append.
func (t *Table) AppendOwned(ts storage.Timestamp, rows []storage.Payload) (RowID, error) {
	if t.view {
		return 0, fmt.Errorf("table %s: Append on a view table; load rows through the owning shard", t.name)
	}
	absent := false
	for _, p := range rows {
		if p == nil {
			absent = true
		} else if len(p) != t.schema.Width() {
			return 0, fmt.Errorf("table %s: payload width %d, schema width %d", t.name, len(p), t.schema.Width())
		}
	}
	recs := storage.NewRecords(ts, rows)
	if absent {
		zero := t.schema.NewPayload()
		for i := range recs {
			if rows[i] == nil {
				recs[i].Payload, recs[i].Deleted = zero, true
			}
		}
	}
	chains := storage.NewVersionChains(recs)
	t.mu.Lock()
	first := RowID(len(t.rows))
	t.rows = slices.Grow(t.rows, len(chains))
	for i := range chains {
		t.rows = append(t.rows, &chains[i])
	}
	t.mu.Unlock()
	t.muts.Add(1)

	t.idxMu.RLock()
	for col, idx := range t.hashIdx {
		t.indexRows(idx.Insert, col, first, rows)
	}
	for col, idx := range t.treeIdx {
		t.indexRows(idx.Insert, col, first, rows)
	}
	t.idxMu.RUnlock()
	return first, nil
}

// indexRows inserts column col of every present row of a batch appended at
// first.
func (t *Table) indexRows(insert func(key int64, row uint64), col string, first RowID, rows []storage.Payload) {
	ci := t.schema.MustCol(col)
	for i, p := range rows {
		if p != nil {
			insert(p.Int64(ci), uint64(first)+uint64(i))
		}
	}
}

// AdoptChain appends an EXISTING version chain — one owned by another
// table — as this table's next row and marks the table as a view. The
// chain is shared, not copied: versions published by the owning table
// (iterative commits included) become visible through the view instantly,
// which is how a shard-local commit at the coordinator's timestamp is
// observable from every other shard's read path. Views refuse Append;
// secondary indexes are maintained from the chain's current head.
func (t *Table) AdoptChain(c *storage.VersionChain) (RowID, error) {
	if c == nil {
		return 0, fmt.Errorf("table %s: AdoptChain of nil chain", t.name)
	}
	t.mu.Lock()
	t.view = true
	id := RowID(len(t.rows))
	t.rows = append(t.rows, c)
	t.mu.Unlock()
	t.muts.Add(1)

	if head := c.Head(); head != nil && !head.Deleted {
		t.idxMu.RLock()
		for col, idx := range t.hashIdx {
			idx.Insert(head.Payload.Int64(t.schema.MustCol(col)), uint64(id))
		}
		for col, idx := range t.treeIdx {
			idx.Insert(head.Payload.Int64(t.schema.MustCol(col)), uint64(id))
		}
		t.idxMu.RUnlock()
	}
	return id, nil
}

// Chain returns the version chain of row, or nil if the row does not exist.
// The chain pointer is stable for the lifetime of the table, so hot paths
// (sub-transaction tx_state) may cache it.
func (t *Table) Chain(row RowID) *storage.VersionChain {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if row >= RowID(len(t.rows)) {
		return nil
	}
	return t.rows[row]
}

// Slots returns the version chains of every current row, indexed by RowID,
// under one lock acquisition. Rows are append-only and a row's chain
// pointer never changes, so the prefix stays valid after later appends;
// whole-table passes iterate it instead of taking the lock once per row.
// Callers must not modify it.
func (t *Table) Slots() []*storage.VersionChain {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.rows[:len(t.rows):len(t.rows)]
}

// Read returns a copy of the row version visible at ts, or false if the row
// does not exist at ts (never created, or deleted by then).
func (t *Table) Read(row RowID, ts storage.Timestamp) (storage.Payload, bool) {
	c := t.Chain(row)
	if c == nil {
		return nil, false
	}
	rec := c.VisibleAt(ts)
	if rec == nil || rec.Deleted {
		return nil, false
	}
	return rec.Payload.Clone(), true
}

// Scan calls fn with every row visible at ts, in RowID order, stopping
// early if fn returns false.
func (t *Table) Scan(ts storage.Timestamp, fn func(row RowID, payload storage.Payload) bool) {
	for i, c := range t.Slots() {
		rec := c.VisibleAt(ts)
		if rec == nil || rec.Deleted {
			continue
		}
		if !fn(RowID(i), rec.Payload) {
			return
		}
	}
}

// ScanHint restricts a table scan — the table-level half of predicate
// pushdown. The planner (internal/plan) compiles a query's pushable
// conjuncts into one of these so filtered rows are rejected inside the
// scan, against the in-place version payload, instead of being
// materialized and discarded by a filter operator above.
type ScanHint struct {
	// Lo and Hi bound the scanned row ids to the half-open range [Lo, Hi);
	// Hi == 0 means "through the last row".
	Lo, Hi RowID
	// Col and Test are an optional single-column predicate: Test receives
	// the raw 64-bit word of column Col of the visible version and decides
	// membership without any payload copy. nil Test scans unconditionally.
	Col  int
	Test func(word uint64) bool
}

// RowsInRange returns the number of row slots a ScanHint's range covers —
// the planner's cardinality upper bound for hash-join build-side
// pre-sizing.
func (t *Table) RowsInRange(h ScanHint) int {
	hi := RowID(t.NumRows())
	if h.Hi != 0 && h.Hi < hi {
		hi = h.Hi
	}
	if h.Lo >= hi {
		return 0
	}
	return int(hi - h.Lo)
}

// CreateHashIndex builds a hash index on column col over all current rows
// using their newest committed versions, then maintains it on Append.
func (t *Table) CreateHashIndex(col string) error {
	ci, err := t.schema.Col(col)
	if err != nil {
		return err
	}
	idx := index.NewHash()
	t.fillIndex(ci, func(key int64, row uint64) { idx.Insert(key, row) })
	t.idxMu.Lock()
	t.hashIdx[col] = idx
	t.idxMu.Unlock()
	t.muts.Add(1)
	return nil
}

// CreateTreeIndex builds an ordered index on column col over all current
// rows, then maintains it on Append. Keys must be unique per row for tree
// indexes; duplicate keys keep the most recently inserted row.
func (t *Table) CreateTreeIndex(col string) error {
	ci, err := t.schema.Col(col)
	if err != nil {
		return err
	}
	idx := index.NewBTree()
	t.fillIndex(ci, func(key int64, row uint64) { idx.Insert(key, row) })
	t.idxMu.Lock()
	t.treeIdx[col] = idx
	t.idxMu.Unlock()
	t.muts.Add(1)
	return nil
}

func (t *Table) fillIndex(ci int, add func(key int64, row uint64)) {
	for i, c := range t.Slots() {
		if head := c.Head(); head != nil && !head.Deleted {
			add(head.Payload.Int64(ci), uint64(i))
		}
	}
}

// NoteMutation records one visible-state change. Publish paths that install
// new versions on existing chains (OLTP write publishes, iterative commits)
// call it inside their publish critical section; Append and AdoptChain bump
// internally.
func (t *Table) NoteMutation() { t.muts.Add(1) }

// Mutations returns the visible-state change counter. Two reads taken after
// pinning two snapshots bracket the interval: equal counters mean no publish
// changed this table between the pins.
func (t *Table) Mutations() uint64 { return t.muts.Load() }

// IndexDefs returns the columns carrying secondary indexes, sorted by name —
// the definition set checkpoints persist so indexes are rebuilt on recovery.
func (t *Table) IndexDefs() (hash, tree []string) {
	t.idxMu.RLock()
	for col := range t.hashIdx {
		hash = append(hash, col)
	}
	for col := range t.treeIdx {
		tree = append(tree, col)
	}
	t.idxMu.RUnlock()
	sort.Strings(hash)
	sort.Strings(tree)
	return hash, tree
}

// HashIndex returns the hash index on col, or nil if none exists.
func (t *Table) HashIndex(col string) *index.Hash {
	t.idxMu.RLock()
	defer t.idxMu.RUnlock()
	return t.hashIdx[col]
}

// TreeIndex returns the ordered index on col, or nil if none exists.
func (t *Table) TreeIndex(col string) *index.BTree {
	t.idxMu.RLock()
	defer t.idxMu.RUnlock()
	return t.treeIdx[col]
}

// Prune garbage-collects row versions invisible to every transaction
// reading at or after watermark (Hekaton-style version GC), returning the
// number of versions dropped. Fully-dead rows — newest reachable version a
// tombstone — have their whole chain reclaimed. The watermark must not
// exceed the oldest active transaction's snapshot; don't call this
// directly in engine code — go through internal/gc.Reclaimer, which clamps
// every watermark to the transaction manager's SafeWatermark so the
// contract is enforced rather than assumed.
func (t *Table) Prune(watermark storage.Timestamp) int {
	dropped := 0
	for _, c := range t.Slots() {
		dropped += c.Prune(watermark)
	}
	return dropped
}

// Lookup returns the row ids whose indexed column col equals key, using the
// hash index. It returns an error if no hash index exists on col.
func (t *Table) Lookup(col string, key int64) ([]RowID, error) {
	idx := t.HashIndex(col)
	if idx == nil {
		return nil, fmt.Errorf("table %s: no hash index on %q", t.name, col)
	}
	raw := idx.GetAll(key)
	out := make([]RowID, len(raw))
	for i, r := range raw {
		out[i] = RowID(r)
	}
	return out, nil
}
