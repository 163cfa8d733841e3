package storage

import "sync/atomic"

// Record is one committed version of a row (Figure 3 in the paper). The
// header holds the Begin and End timestamps that bound the version's valid
// lifetime; the prev pointer links to the version it superseded. Records
// are immutable once installed except for the End timestamp, which the
// superseding transaction stamps when it installs the next version, and
// the link fields (prev, iter), which the version garbage collector cuts
// while concurrent readers traverse them — hence both are atomic pointers.
type Record struct {
	begin atomic.Uint64
	end   atomic.Uint64

	// prev is the previous version in the chain, nil for the first. It is
	// written by Install (once, before publication) and by Prune (cut to
	// nil) while chain walkers traverse concurrently, so all access goes
	// through atomic loads/stores — see Prev.
	prev atomic.Pointer[Record]

	// iter is non-nil when this version is an iterative record created by
	// an uber-transaction. The garbage collector strips it from superseded
	// versions (their snapshot slots can never be read again), so access
	// is atomic — see Iter.
	iter atomic.Pointer[IterativeRecord]

	// Payload is the row image of this version. For iterative records it
	// is the latest converged snapshot (see IterativeRecord).
	Payload Payload

	// Deleted marks this version as a tombstone: the row does not exist
	// for transactions reading in its lifetime. The chain keeps the
	// tombstone so snapshot reads before the delete still see the row.
	Deleted bool
}

// NewRecord builds a version valid from begin until superseded.
func NewRecord(begin Timestamp, payload Payload) *Record {
	r := &Record{}
	r.init(begin, payload)
	return r
}

func (r *Record) init(begin Timestamp, payload Payload) {
	r.Payload = payload
	r.begin.Store(uint64(begin))
	r.end.Store(uint64(InfTS))
}

// NewRecords builds one version per payload, each valid from begin until
// superseded, carved from one slab: a bulk install pays one allocation for
// all of its versions. The versions share the slab's lifetime — it is
// freed only when none of them is reachable — so use it where the
// versions are expected to live about as long as each other.
func NewRecords(begin Timestamp, payloads []Payload) []Record {
	recs := make([]Record, len(payloads))
	for i := range recs {
		recs[i].init(begin, payloads[i])
	}
	return recs
}

// arenaChunk is the number of versions in one RecordArena chunk: 1 024
// versions of 64 bytes make a 64 KiB chunk, a large-object allocation
// with no per-object header.
const arenaChunk = 1024

// RecordArena hands out versions carved from fixed-size chunks, so a
// burst of installs (recovery replaying commit records) pays one
// allocation per chunk instead of one per version. Each chunk stays
// reachable while any of its versions does, so an arena never retains
// more than it handed out plus one partly used chunk. Not safe for
// concurrent use; the zero value is ready.
type RecordArena struct {
	free []Record
}

// New returns a version valid from begin until superseded.
func (a *RecordArena) New(begin Timestamp, payload Payload) *Record {
	if len(a.free) == 0 {
		a.free = make([]Record, arenaChunk)
	}
	r := &a.free[0]
	a.free = a.free[1:]
	r.init(begin, payload)
	return r
}

// Begin returns the timestamp at which this version became valid.
func (r *Record) Begin() Timestamp { return Timestamp(r.begin.Load()) }

// End returns the timestamp at which this version stopped being valid
// (InfTS while it is the most recent one).
func (r *Record) End() Timestamp { return Timestamp(r.end.Load()) }

// Prev returns the previous version in the chain, nil for the first (or
// after the garbage collector cut the link).
func (r *Record) Prev() *Record { return r.prev.Load() }

// Iter returns the iterative record riding on this version, nil for plain
// versions (or after the garbage collector stripped a superseded one).
func (r *Record) Iter() *IterativeRecord { return r.iter.Load() }

// SetBegin publishes the version as of ts. Uber-transactions use this to
// flip an in-flight iterative record (begin = InfTS, invisible to everyone)
// to globally visible at their commit timestamp.
func (r *Record) SetBegin(ts Timestamp) { r.begin.Store(uint64(ts)) }

// SetEnd stamps the end of the version's lifetime.
func (r *Record) SetEnd(ts Timestamp) { r.end.Store(uint64(ts)) }

// Publish makes an in-flight version (installed with Begin = InfTS, e.g. an
// iterative record) globally visible as of ts and closes its predecessor's
// lifetime so version lifetimes stay disjoint.
func (r *Record) Publish(ts Timestamp) {
	r.SetBegin(ts)
	if p := r.Prev(); p != nil {
		p.SetEnd(ts)
	}
}

// VisibleAt reports whether this version is the one a transaction reading
// at ts must observe: begin <= ts < end.
func (r *Record) VisibleAt(ts Timestamp) bool {
	return r.Begin() <= ts && ts < r.End()
}

// VersionChain is the per-row list of versions, newest first. Install uses
// compare-and-swap so concurrent writers serialize without locks and
// readers traverse without blocking.
type VersionChain struct {
	head atomic.Pointer[Record]
}

// NewVersionChain returns a chain seeded with an initial version, or an
// empty chain if initial is nil.
func NewVersionChain(initial *Record) *VersionChain {
	c := &VersionChain{}
	if initial != nil {
		c.head.Store(initial)
	}
	return c
}

// NewVersionChains seeds one chain per version, chain i headed by
// &heads[i], all from one slab — the bulk-install companion of NewRecords.
func NewVersionChains(heads []Record) []VersionChain {
	chains := make([]VersionChain, len(heads))
	for i := range chains {
		chains[i].head.Store(&heads[i])
	}
	return chains
}

// Head returns the most recent version, committed or not, or nil for an
// empty chain.
func (c *VersionChain) Head() *Record { return c.head.Load() }

// Install makes r the new head if the current head is still expected.
// It returns false when another writer won the race, in which case the
// caller must abort (first-committer-wins). On success the superseded
// version's End is stamped with r's Begin.
func (c *VersionChain) Install(expected, r *Record) bool {
	r.prev.Store(expected)
	if !c.head.CompareAndSwap(expected, r) {
		return false
	}
	if expected != nil {
		expected.SetEnd(r.Begin())
	}
	return true
}

// Unwind removes head from the chain, restoring its predecessor, and
// reopens the predecessor's lifetime. It is used to discard an in-flight
// (never published) version, e.g. when an uber-transaction aborts. It
// returns false if head is no longer the chain head.
func (c *VersionChain) Unwind(head *Record) bool {
	prev := head.Prev()
	if !c.head.CompareAndSwap(head, prev) {
		return false
	}
	if prev != nil {
		prev.SetEnd(InfTS)
	}
	return true
}

// VisibleAt walks the chain and returns the version visible at ts, or nil
// if the row did not exist at ts.
func (c *VersionChain) VisibleAt(ts Timestamp) *Record {
	for r := c.Head(); r != nil; r = r.Prev() {
		if r.VisibleAt(ts) {
			return r
		}
	}
	return nil
}

// VisibleMatch resolves the version visible at ts and evaluates an
// optional single-column predicate against its payload in place — the
// storage-level half of scan predicate pushdown. Rows whose visible
// version is absent, deleted, or fails the predicate are rejected here,
// before any payload is cloned or handed up the operator tree, so a
// selective scan never materializes the tuples it filters out. test
// receives the raw 64-bit column word (the caller compiles the comparison
// against the column's declared type); nil means "no predicate".
func (c *VersionChain) VisibleMatch(ts Timestamp, col int, test func(word uint64) bool) (*Record, bool) {
	rec := c.VisibleAt(ts)
	if rec == nil || rec.Deleted {
		return nil, false
	}
	if test != nil && !test(rec.Payload[col]) {
		return rec, false
	}
	return rec, true
}

// Prune garbage-collects versions that no transaction reading at or after
// watermark can see: it finds the newest version with Begin <= watermark
// and cuts its Prev link, returning the number of versions dropped. When
// that newest reachable version is itself a tombstone, the whole chain
// tail — tombstone included — is reclaimed: every reader at or after the
// watermark observes "row absent" either way. Superseded iterative
// versions on the surviving prefix get their snapshot slabs stripped (the
// engine only ever reads the head's iterative record).
//
// Callers must pass a watermark at or below the oldest active snapshot —
// in this repo the transaction manager's SafeWatermark, which the
// internal/gc reclaimer enforces by clamping. The surgery is a pair of
// atomic cuts, safe against concurrent readers (they either hold the old
// sub-chain, which stays intact, or start from the head) and against
// concurrent writers (head removal is a CAS that loses to any Install).
func (c *VersionChain) Prune(watermark Timestamp) int {
	var succ *Record // oldest version newer than the watermark, if any
	for r := c.Head(); r != nil; r = r.Prev() {
		if r.Begin() > watermark {
			// Still reachable by a reader pinned between watermark and now
			// (this includes in-flight versions: InfTS > watermark).
			succ = r
			continue
		}
		// r is the newest version any reader at ts >= watermark can land
		// on; everything below it is dead.
		dropped := 0
		for p := r.Prev(); p != nil; p = p.Prev() {
			dropped++
		}
		r.prev.Store(nil)
		if r.Deleted {
			// The newest reachable version says "row absent"; an empty
			// tail says the same, so the tombstone itself is dead weight.
			if succ != nil {
				succ.prev.Store(nil)
				dropped++
			} else if c.head.CompareAndSwap(r, nil) {
				// Head removal races concurrent writers: losing the CAS
				// means someone just installed a new head over the
				// tombstone, which keeps it reachable — leave it be.
				dropped++
			}
		} else if succ != nil {
			// r survives but is superseded: nothing reads a non-head
			// iterative record, so its snapshot slab is reclaimable.
			r.iter.Store(nil)
		}
		return dropped
	}
	return 0
}

// Len returns the number of versions in the chain.
func (c *VersionChain) Len() int {
	n := 0
	for r := c.Head(); r != nil; r = r.Prev() {
		n++
	}
	return n
}
