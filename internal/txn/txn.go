// Package txn implements classical transactions over ML-tables: snapshot
// isolation with first-committer-wins write-conflict handling, the
// transaction model the paper's storage manager inherits from Larson et
// al.'s main-memory MVCC design. Uber-transactions (package itx) are built
// on top of these transactions, which keeps ML-tables fully usable by
// normal OLTP workloads while an ML algorithm runs.
package txn

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"db4ml/internal/storage"
	"db4ml/internal/table"
)

// ErrConflict is returned by Commit when another transaction committed a
// conflicting write first (first-committer-wins) or holds an in-flight
// version of a row in the write set.
var ErrConflict = errors.New("txn: write-write conflict")

// ErrDone is returned when a committed or aborted transaction is used.
var ErrDone = errors.New("txn: transaction already finished")

// ErrCrossKernelWrite is returned by every write of a transaction begun
// across several kernels (BeginCut): it reads one cross-kernel cut, but a
// commit of its writes on every kernel is not supported.
var ErrCrossKernelWrite = errors.New("txn: a transaction across kernels is read-only")

// Manager hands out transactions against a shared timestamp oracle.
//
// Transactions begin at the manager's *stable* timestamp — the newest
// commit timestamp whose writes are fully published — never at the raw
// oracle value. Without this distinction a transaction could begin exactly
// at a commit timestamp mid-publish, read the pre-commit versions, and
// still pass first-committer-wins validation, losing the earlier commit's
// update. Publishing is serialized by commitMu, so the stable watermark
// advances only over complete snapshots.
type Manager struct {
	oracle   *storage.Oracle
	commitMu sync.Mutex
	stable   atomic.Uint64

	// Active-snapshot registry: every live reader — OLTP transactions and
	// uber-transactions — pins the begin timestamp it reads at, and the
	// version garbage collector prunes only below the oldest pin
	// (SafeWatermark). pins is a begin-timestamp -> reader-count multiset;
	// it stays small (one entry per distinct active begin timestamp).
	snapMu sync.Mutex
	pins   map[storage.Timestamp]int
}

// NewManager creates a transaction manager with a fresh oracle.
func NewManager() *Manager {
	return &Manager{oracle: &storage.Oracle{}, pins: make(map[storage.Timestamp]int)}
}

// NewManagerWithOracle creates a transaction manager drawing timestamps
// from a shared oracle. Shard kernels use it so commit timestamps are
// globally comparable across shards — a prerequisite for the coordinator's
// two-phase uber-commit, which publishes the same timestamp on every
// shard. Each manager still owns its commit lock, stable watermark, and
// active-snapshot registry; only the counter is shared.
func NewManagerWithOracle(o *storage.Oracle) *Manager {
	if o == nil {
		o = &storage.Oracle{}
	}
	return &Manager{oracle: o, pins: make(map[storage.Timestamp]int)}
}

// Oracle exposes the manager's timestamp oracle, shared with bulk loaders
// and uber-transactions.
func (m *Manager) Oracle() *storage.Oracle { return m.oracle }

// Stable returns the newest fully published commit timestamp. Reads at
// Stable() observe a consistent snapshot.
func (m *Manager) Stable() storage.Timestamp {
	return storage.Timestamp(m.stable.Load())
}

// PublishAt draws a fresh commit timestamp, runs publish with it while
// holding the commit lock, then advances the stable watermark past it.
// Every path that makes new versions visible — transaction commits, bulk
// loads, uber-transaction commits — must go through PublishAt so
// transactions never begin inside a half-published snapshot.
func (m *Manager) PublishAt(publish func(ts storage.Timestamp)) storage.Timestamp {
	m.commitMu.Lock()
	defer m.commitMu.Unlock()
	ts := m.oracle.Next()
	publish(ts)
	m.stable.Store(uint64(ts))
	return ts
}

// RestoreStable advances the stable watermark (and the shared oracle) to ts
// without publishing anything. Recovery calls it after rebuilding state at
// original commit timestamps so new transactions begin at or above the
// newest replayed commit. It never moves the watermark backwards and must
// not race live publishes — recovery runs before the kernel accepts work.
func (m *Manager) RestoreStable(ts storage.Timestamp) {
	m.commitMu.Lock()
	m.oracle.AdvanceTo(ts)
	if uint64(ts) > m.stable.Load() {
		m.stable.Store(uint64(ts))
	}
	m.commitMu.Unlock()
}

// Prepared is a shard's side of a two-phase commit: the manager's commit
// lock, held between the coordinator's prepare and commit (or abort)
// decisions. While a Prepared is open no other publish — OLTP commit, bulk
// load, single-kernel uber-commit — can interleave on this manager, so the
// shard's stable watermark cannot move between the prepare vote and the
// coordinated publish. Exactly one of CommitAt or Abort must be called.
type Prepared struct {
	m    *Manager
	done bool
}

// Prepare locks the manager for a coordinated publish and returns the
// handle the commit phase settles. Multiple managers must be prepared in a
// deterministic order (the coordinator uses shard-id order) so concurrent
// coordinators cannot deadlock against each other.
func (m *Manager) Prepare() *Prepared {
	m.commitMu.Lock()
	return &Prepared{m: m}
}

// CommitAt runs publish with the coordinator-chosen timestamp, advances
// the stable watermark to it, and releases the prepare lock. ts must come
// from the shared oracle and be drawn after every participating shard
// prepared: commits on this manager serialize on the commit lock, so every
// earlier publish here drew a smaller timestamp and the watermark only
// moves forward. A stale ts (below the current watermark) panics — it
// would re-expose a half-published snapshot to new transactions.
func (p *Prepared) CommitAt(ts storage.Timestamp, publish func(ts storage.Timestamp)) {
	if p.done {
		panic("txn: CommitAt on a settled Prepared")
	}
	p.done = true
	if cur := p.m.Stable(); ts < cur {
		p.m.commitMu.Unlock()
		panic(fmt.Sprintf("txn: coordinated commit ts %d below stable watermark %d", ts, cur))
	}
	publish(ts)
	p.m.stable.Store(uint64(ts))
	p.m.commitMu.Unlock()
}

// Abort releases the prepare lock without publishing anything.
func (p *Prepared) Abort() {
	if p.done {
		return
	}
	p.done = true
	p.m.commitMu.Unlock()
}

// PinSnapshot atomically reads the current stable timestamp and registers
// an active reader on it, so SafeWatermark can never advance past it until
// the matching UnpinSnapshot. Begin and itx.BeginUber pin through here;
// direct callers (read replicas, long scans) may too, but must guarantee
// the unpin — a leaked pin freezes garbage collection at its timestamp.
func (m *Manager) PinSnapshot() storage.Timestamp {
	m.snapMu.Lock()
	ts := m.Stable()
	m.pins[ts]++
	m.snapMu.Unlock()
	return ts
}

// PinAt registers an active reader on the given timestamp without reading
// the stable watermark — the pin long-running scans (relational table
// scans, query plans) take around their whole lifetime so the version
// garbage collector cannot reclaim the versions they still have to visit.
// Unlike PinSnapshot, the caller chooses ts, and with that inherits an
// obligation: ts must still be at or above SafeWatermark when PinAt runs,
// which in practice means it was obtained while another pin covered it (a
// transaction's snapshot, an uber-transaction's begin, an enclosing query
// pin) or is the current stable timestamp read moments ago on a path where
// no GC pass can interleave. Release with UnpinSnapshot(ts).
func (m *Manager) PinAt(ts storage.Timestamp) {
	m.snapMu.Lock()
	m.pins[ts]++
	m.snapMu.Unlock()
}

// UnpinSnapshot releases one PinSnapshot (or PinAt) registration of ts.
func (m *Manager) UnpinSnapshot(ts storage.Timestamp) {
	m.snapMu.Lock()
	if n := m.pins[ts]; n <= 1 {
		delete(m.pins, ts)
	} else {
		m.pins[ts] = n - 1
	}
	m.snapMu.Unlock()
}

// SafeWatermark returns the newest timestamp version garbage collection
// may prune at: the oldest active pinned begin timestamp, or the stable
// timestamp when no reader is active. Pruning a chain at SafeWatermark
// keeps the newest version at or below it, so every registered reader
// (begin >= watermark) still resolves the version it pinned. The registry
// is the single source of watermarks — internal/gc clamps every requested
// watermark to this value rather than trusting callers.
func (m *Manager) SafeWatermark() storage.Timestamp {
	m.snapMu.Lock()
	defer m.snapMu.Unlock()
	w := m.Stable()
	for ts := range m.pins {
		if ts < w {
			w = ts
		}
	}
	return w
}

// ActiveSnapshots returns the number of currently pinned readers (distinct
// transactions, not distinct timestamps).
func (m *Manager) ActiveSnapshots() int {
	m.snapMu.Lock()
	defer m.snapMu.Unlock()
	n := 0
	for _, c := range m.pins {
		n += c
	}
	return n
}

// Begin starts a transaction reading the most recent stable snapshot. The
// snapshot is pinned in the active-snapshot registry until the transaction
// commits or aborts, holding the GC watermark back so the versions it
// reads stay reachable.
func (m *Manager) Begin() *Txn {
	return &Txn{m: m, beginTS: m.PinSnapshot(), writeIdx: make(map[writeKey]int)}
}

// Cut pins one timestamp at which every manager is fully published and
// returns it; the caller unpins it on each manager. With every commit lock
// held — taken in slice order, the order a coordinated commit prepares in,
// so the two cannot deadlock — no publish is in flight anywhere, so the
// shared oracle's current value is such a timestamp. On one manager it is
// the stable watermark PinSnapshot would pin. The pins keep each manager's
// GC above the cut.
func Cut(mgrs []*Manager) storage.Timestamp {
	preps := make([]*Prepared, len(mgrs))
	for i, m := range mgrs {
		preps[i] = m.Prepare()
	}
	ts := mgrs[0].Oracle().Current()
	for _, m := range mgrs {
		m.PinAt(ts)
	}
	for _, p := range preps {
		p.Abort()
	}
	return ts
}

// BeginCut starts a read-only transaction over several managers sharing
// one oracle: it reads at one Cut of all of them, pinned on each until
// Commit or Abort. Its writes fail with ErrCrossKernelWrite.
func BeginCut(mgrs []*Manager) *Txn {
	return &Txn{m: mgrs[0], cut: mgrs, beginTS: Cut(mgrs)}
}

type txnState int

const (
	active txnState = iota
	committed
	aborted
)

type writeKey struct {
	tbl *table.Table
	row table.RowID
}

type writeOp struct {
	key     writeKey
	payload storage.Payload
	delete  bool
}

type insertOp struct {
	tbl     *table.Table
	payload storage.Payload
}

// Txn is a snapshot-isolation transaction. All reads observe the snapshot
// at Begin; writes are buffered and installed atomically at Commit. A Txn
// must be used from a single goroutine.
type Txn struct {
	m *Manager
	// cut lists every manager a BeginCut transaction is pinned on; nil on
	// one manager.
	cut      []*Manager
	beginTS  storage.Timestamp
	state    txnState
	writes   []writeOp
	writeIdx map[writeKey]int
	inserts  []insertOp
	inserted []table.RowID
}

// BeginTS returns the transaction's snapshot timestamp.
func (tx *Txn) BeginTS() storage.Timestamp { return tx.beginTS }

// Read returns a copy of the row as of the transaction snapshot, with
// read-your-writes (and read-your-deletes) semantics for rows this
// transaction has written.
func (tx *Txn) Read(tbl *table.Table, row table.RowID) (storage.Payload, bool) {
	if tx.state != active {
		return nil, false
	}
	if i, ok := tx.writeIdx[writeKey{tbl, row}]; ok {
		if tx.writes[i].delete {
			return nil, false
		}
		return tx.writes[i].payload.Clone(), true
	}
	return tbl.Read(row, tx.beginTS)
}

// Write buffers a full-row update. The payload is cloned. The write becomes
// visible to other transactions only after Commit succeeds.
func (tx *Txn) Write(tbl *table.Table, row table.RowID, payload storage.Payload) error {
	if err := tx.writable(); err != nil {
		return err
	}
	if len(payload) != tbl.Schema().Width() {
		return fmt.Errorf("txn: payload width %d, schema width %d", len(payload), tbl.Schema().Width())
	}
	key := writeKey{tbl, row}
	if i, ok := tx.writeIdx[key]; ok {
		copy(tx.writes[i].payload, payload)
		tx.writes[i].delete = false
		return nil
	}
	tx.writeIdx[key] = len(tx.writes)
	tx.writes = append(tx.writes, writeOp{key: key, payload: payload.Clone()})
	return nil
}

// Delete buffers the removal of a row. After a successful Commit the row
// is invisible to transactions whose snapshot is at or after the commit;
// earlier snapshots still see it (a tombstone version is installed, not a
// physical removal). Deleting an absent row is an error.
func (tx *Txn) Delete(tbl *table.Table, row table.RowID) error {
	if err := tx.writable(); err != nil {
		return err
	}
	if _, ok := tx.Read(tbl, row); !ok {
		return fmt.Errorf("txn: delete of absent row %d", row)
	}
	key := writeKey{tbl, row}
	if i, ok := tx.writeIdx[key]; ok {
		tx.writes[i].delete = true
		return nil
	}
	tx.writeIdx[key] = len(tx.writes)
	tx.writes = append(tx.writes, writeOp{
		key:     key,
		payload: tbl.Schema().NewPayload(),
		delete:  true,
	})
	return nil
}

// UpdateCol reads the row, applies fn to column col, and buffers the
// result — the common read-modify-write step of OLTP workloads.
func (tx *Txn) UpdateCol(tbl *table.Table, row table.RowID, col int, fn func(old uint64) uint64) error {
	p, ok := tx.Read(tbl, row)
	if !ok {
		return fmt.Errorf("txn: row %d not visible", row)
	}
	p[col] = fn(p[col])
	return tx.Write(tbl, row, p)
}

// Insert buffers a new row for tbl; it is appended with the commit
// timestamp when the transaction commits. The new RowID is available from
// InsertedRows after Commit.
func (tx *Txn) Insert(tbl *table.Table, payload storage.Payload) error {
	if err := tx.writable(); err != nil {
		return err
	}
	if len(payload) != tbl.Schema().Width() {
		return fmt.Errorf("txn: payload width %d, schema width %d", len(payload), tbl.Schema().Width())
	}
	tx.inserts = append(tx.inserts, insertOp{tbl: tbl, payload: payload.Clone()})
	return nil
}

// InsertedRows returns the RowIDs assigned to this transaction's inserts,
// in Insert order. Valid only after a successful Commit.
func (tx *Txn) InsertedRows() []table.RowID { return tx.inserted }

// writable reports why the transaction cannot buffer a write, if it cannot.
func (tx *Txn) writable() error {
	switch {
	case tx.state != active:
		return ErrDone
	case tx.cut != nil:
		return ErrCrossKernelWrite
	}
	return nil
}

// settle moves the transaction out of the active state exactly once,
// releasing its snapshot pins so the GC watermark can advance past them.
func (tx *Txn) settle(st txnState) {
	if tx.state == active {
		if tx.cut == nil {
			tx.m.UnpinSnapshot(tx.beginTS)
		}
		for _, m := range tx.cut {
			m.UnpinSnapshot(tx.beginTS)
		}
	}
	tx.state = st
}

// Abort discards all buffered writes.
func (tx *Txn) Abort() {
	if tx.state == active {
		tx.settle(aborted)
	}
}

// Commit atomically installs the write set. The protocol is two-phase:
// first every written row gets an invisible pending version (Begin = InfTS)
// installed with a CAS — failing if any row has a newer committed version
// than the snapshot or a pending version from another transaction — then a
// commit timestamp is drawn and every pending version is published. On
// conflict, already-installed pending versions are unwound and ErrConflict
// is returned; the transaction is finished either way.
func (tx *Txn) Commit() error {
	if tx.state != active {
		return ErrDone
	}
	if tx.cut != nil {
		// Read-only: nothing to publish.
		tx.settle(committed)
		return nil
	}
	// Deterministic install order keeps conflict behaviour reproducible.
	order := make([]int, len(tx.writes))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		wa, wb := tx.writes[order[a]], tx.writes[order[b]]
		if wa.key.tbl != wb.key.tbl {
			return wa.key.tbl.Name() < wb.key.tbl.Name()
		}
		return wa.key.row < wb.key.row
	})

	installed := make([]*storage.Record, 0, len(tx.writes))
	chains := make([]*storage.VersionChain, 0, len(tx.writes))
	unwind := func() {
		for i := len(installed) - 1; i >= 0; i-- {
			chains[i].Unwind(installed[i])
		}
	}
	for _, i := range order {
		w := tx.writes[i]
		chain := w.key.tbl.Chain(w.key.row)
		if chain == nil {
			unwind()
			tx.settle(aborted)
			return fmt.Errorf("txn: row %d vanished", w.key.row)
		}
		head := chain.Head()
		if head != nil {
			if head.Begin() == storage.InfTS {
				// In-flight version from another transaction (or an
				// uber-transaction's iterative record).
				unwind()
				tx.settle(aborted)
				return ErrConflict
			}
			if head.Begin() > tx.beginTS {
				// Someone committed after our snapshot: first committer won.
				unwind()
				tx.settle(aborted)
				return ErrConflict
			}
		}
		pending := storage.NewRecord(0, w.payload)
		pending.Deleted = w.delete
		pending.SetBegin(storage.InfTS)
		if !chain.Install(head, pending) {
			unwind()
			tx.settle(aborted)
			return ErrConflict
		}
		installed = append(installed, pending)
		chains = append(chains, chain)
	}

	tx.m.PublishAt(func(commitTS storage.Timestamp) {
		for _, rec := range installed {
			rec.Publish(commitTS)
		}
		// One mutation note per distinct written table, inside the publish
		// critical section (inserts bump via Append below).
		var last *table.Table
		for _, i := range order {
			if tbl := tx.writes[i].key.tbl; tbl != last {
				tbl.NoteMutation()
				last = tbl
			}
		}
		for _, ins := range tx.inserts {
			row, err := ins.tbl.Append(commitTS, ins.payload)
			if err != nil {
				// Inserts were validated at buffer time; failure here means
				// a schema change mid-flight, which tables do not support.
				panic(fmt.Sprintf("txn: insert failed at commit: %v", err))
			}
			tx.inserted = append(tx.inserted, row)
		}
	})
	tx.settle(committed)
	return nil
}
