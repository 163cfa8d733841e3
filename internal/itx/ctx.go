package itx

import (
	"runtime"
	"time"

	"db4ml/internal/chaos"
	"db4ml/internal/isolation"
	"db4ml/internal/obs"
	"db4ml/internal/storage"
	"db4ml/internal/trace"
)

// Recorder receives the isolation-relevant history of a sub-transaction:
// every mediated read, the per-read staleness evidence weighed at commit
// time, every snapshot install, and each attempt's outcome. internal/check
// implements it to validate the isolation contracts post-hoc; a nil
// Recorder (the default) costs the hot path one pointer nil-check per site.
// Implementations are called concurrently from every worker.
type Recorder interface {
	// ObserveRead: the sub-transaction read snapshot readIter of rec while
	// the record's iteration counter stood at counter.
	ObserveRead(worker, sub int, attempt uint64, rec *storage.IterativeRecord, readIter, counter uint64)
	// ObserveValidation: at finalize time, the read of rec at readIter was
	// validated against the record's then-current counter latest; committed
	// says whether the iteration's writes were installed.
	ObserveValidation(worker, sub int, iter uint64, rec *storage.IterativeRecord, readIter, latest uint64, committed bool)
	// ObserveInstall: the iteration installed a snapshot on rec, advancing
	// its counter to counter.
	ObserveInstall(worker, sub int, iter uint64, rec *storage.IterativeRecord, counter uint64)
	// ObserveOutcome: one finalize finished with the given verdict;
	// committed is false for rollbacks (user-requested or staleness).
	ObserveOutcome(worker, sub int, iter uint64, action Action, committed bool)
}

// Ctx is the per-sub-transaction execution context. It mediates every
// access to iterative records according to the uber-transaction's isolation
// level, and it is reused across the sub-transaction's iterations so the
// hot path allocates nothing.
type Ctx struct {
	opts      isolation.Options
	worker    int
	sub       int
	iteration uint64
	attempts  uint64
	obs       *obs.Observer  // nil when telemetry is disabled
	rec       Recorder       // nil when history recording is disabled
	chaos     chaos.Injector // nil when fault injection is disabled
	tracer    *trace.Tracer  // nil when span tracing is disabled
	job       uint64         // pool job id, for trace event attribution

	reads     []readEntry
	latests   []uint64                         // per-read counters sampled at validation (recording only)
	readIdx   map[*storage.IterativeRecord]int // rec -> index into reads
	rowWrites []rowWrite
	colWrites []colWrite
	arena     []uint64 // backing storage for buffered row writes

	// bumped tracks which records already had their IterCounter advanced
	// this iteration, so interleaved column-write runs (A,B,A) bump each
	// record exactly once. The linear scan covers the common few-record
	// case; bumpIdx takes over past bumpedScanMax distinct records.
	bumped  []*storage.IterativeRecord
	bumpIdx map[*storage.IterativeRecord]struct{}
}

// bumpedScanMax is the crossover from linear scan to map lookup for the
// per-iteration counter-bump dedup set.
const bumpedScanMax = 16

type readEntry struct {
	rec  *storage.IterativeRecord
	iter uint64
}

type rowWrite struct {
	rec    *storage.IterativeRecord
	off, n int // slice of arena
}

type colWrite struct {
	rec  *storage.IterativeRecord
	col  int
	bits uint64
}

// NewCtx builds a context enforcing opts for a sub-transaction run by the
// given worker.
func NewCtx(opts isolation.Options, worker int) *Ctx {
	return &Ctx{opts: opts, worker: worker}
}

// NewCtxs builds n contexts like NewCtx in one slab, so an executor sets up
// a job's contexts in one allocation.
func NewCtxs(opts isolation.Options, worker, n int) []Ctx {
	cs := make([]Ctx, n)
	for i := range cs {
		cs[i] = Ctx{opts: opts, worker: worker}
	}
	return cs
}

// Worker returns the id of the worker currently driving this
// sub-transaction.
func (c *Ctx) Worker() int { return c.worker }

// SetWorker is called by the executor when a different worker picks the
// sub-transaction's batch up.
func (c *Ctx) SetWorker(w int) { c.worker = w }

// Iteration returns the number of successfully committed iterations of
// this sub-transaction so far (0 during the first attempt).
func (c *Ctx) Iteration() uint64 { return c.iteration }

// Attempts returns the number of finalized iteration attempts, committed or
// rolled back. Unlike Iteration it advances under perpetual rollback, which
// is what the executor's livelock backstop keys on.
func (c *Ctx) Attempts() uint64 { return c.attempts }

// SetObserver attaches a telemetry observer; the context reports rollback
// causes (user-requested vs. staleness violation) through it. nil disables.
func (c *Ctx) SetObserver(o *obs.Observer) { c.obs = o }

// SetSub tags the context with the sub-transaction's index within its job,
// so recorded history events are attributable. The executor sets it at
// submission.
func (c *Ctx) SetSub(i int) { c.sub = i }

// Sub returns the sub-transaction's index within its job.
func (c *Ctx) Sub() int { return c.sub }

// SetRecorder attaches a history recorder (see Recorder). nil disables.
func (c *Ctx) SetRecorder(r Recorder) { c.rec = r }

// SetChaos attaches a fault injector consulted at the context's Install
// point (between staleness validation and write install). nil disables.
func (c *Ctx) SetChaos(inj chaos.Injector) { c.chaos = inj }

// SetTracer attaches a span tracer; the context marks the chaos faults it
// absorbs at its Install point as instants attributed to the given job.
// nil disables.
func (c *Ctx) SetTracer(t *trace.Tracer, job uint64) { c.tracer, c.job = t, job }

// Options returns the isolation options in force.
func (c *Ctx) Options() isolation.Options { return c.opts }

// Read copies the record's current snapshot into out under the
// uber-transaction's isolation level:
//
//   - Synchronous: a relaxed read; the executor's barrier guarantees that
//     the only installed snapshots are from the previous iteration.
//   - Asynchronous: a relaxed read of the newest (possibly torn) state.
//   - BoundedStaleness: a consistent seqlock read (or a relaxed read under
//     the single-writer hint), recorded so staleness can be validated at
//     commit.
//
// It returns the iteration number of the snapshot read.
func (c *Ctx) Read(rec *storage.IterativeRecord, out storage.Payload) uint64 {
	switch c.opts.Level {
	case isolation.BoundedStaleness:
		var iter uint64
		if c.opts.SingleWriterHint {
			iter = rec.ReadRelaxed(out)
		} else {
			iter = rec.ReadRecent(out)
		}
		c.reads = append(c.reads, readEntry{rec, iter})
		if c.rec != nil {
			c.rec.ObserveRead(c.worker, c.sub, c.iteration, rec, iter, rec.Latest())
		}
		return iter
	default:
		iter := rec.ReadRelaxed(out)
		if c.rec != nil {
			c.rec.ObserveRead(c.worker, c.sub, c.iteration, rec, iter, rec.Latest())
		}
		return iter
	}
}

// ReadCol reads a single column without copying the whole row — the SGD
// hot path. Under bounded staleness the access is recorded like Read.
func (c *Ctx) ReadCol(rec *storage.IterativeRecord, col int) uint64 {
	bits := rec.LoadRelaxed(col)
	if c.opts.Level == isolation.BoundedStaleness {
		// Stamp the read with the counter observed *after* the load: an
		// install landing between the two then yields a stamp newer than
		// the value, never older — stamping first would charge the already-
		// observed install as staleness and roll the iteration back
		// spuriously.
		c.noteRead(rec, rec.Latest())
	}
	if c.rec != nil {
		latest := rec.Latest()
		c.rec.ObserveRead(c.worker, c.sub, c.iteration, rec, latest, latest)
	}
	return bits
}

// noteRead records a bounded-staleness column read, keeping at most one
// entry per record (with the oldest observed iteration — the strictest
// bound, equivalent to validating every entry separately). Column loops
// that sweep one record (SGD over the model row) hit the last-entry fast
// path; arbitrary interleavings fall back to the index map. Either way
// stalenessViolated is O(distinct records), not O(column reads).
func (c *Ctx) noteRead(rec *storage.IterativeRecord, iter uint64) {
	if n := len(c.reads); n > 0 && c.reads[n-1].rec == rec {
		if iter < c.reads[n-1].iter {
			c.reads[n-1].iter = iter
		}
		return
	}
	if c.readIdx == nil {
		c.readIdx = make(map[*storage.IterativeRecord]int)
	}
	if j, ok := c.readIdx[rec]; ok {
		if iter < c.reads[j].iter {
			c.reads[j].iter = iter
		}
		return
	}
	c.readIdx[rec] = len(c.reads)
	c.reads = append(c.reads, readEntry{rec, iter})
}

// Write buffers a full-row update of rec. The payload is copied into the
// context's arena; it is installed when the iteration commits.
func (c *Ctx) Write(rec *storage.IterativeRecord, payload storage.Payload) {
	off := len(c.arena)
	c.arena = append(c.arena, payload...)
	c.rowWrites = append(c.rowWrites, rowWrite{rec: rec, off: off, n: len(payload)})
}

// WriteCol updates a single column. Under the asynchronous level the store
// is installed immediately, Hogwild!-style, so sibling sub-transactions
// (and later samples of the same iteration) observe it right away; under
// the other levels it is buffered until commit.
func (c *Ctx) WriteCol(rec *storage.IterativeRecord, col int, bits uint64) {
	if c.opts.Level == isolation.Asynchronous {
		rec.StoreRelaxed(col, bits)
		return
	}
	c.colWrites = append(c.colWrites, colWrite{rec: rec, col: col, bits: bits})
}

// Finalize ends the current iteration attempt with the sub-transaction's
// validate verdict. It reports whether the sub-transaction converged and
// whether the iteration was rolled back (either requested by the user or
// forced by a staleness violation, Section 4.1). A rolled-back iteration
// leaves no trace and the sub-transaction repeats it.
func (c *Ctx) Finalize(action Action) (converged, rolledBack bool) {
	c.attempts++
	skipCheck := false
	if c.chaos != nil {
		f := c.chaos.Perturb(chaos.Install, c.worker)
		if f != chaos.None {
			c.tracer.Instant(c.worker, trace.KindFault, c.job, int64(f))
		}
		switch f {
		case chaos.Stall:
			time.Sleep(chaos.StallDuration)
		case chaos.Preempt:
			runtime.Gosched()
		case chaos.OmitStalenessCheck:
			skipCheck = true
		}
	}
	if action == Rollback {
		if c.obs != nil {
			c.obs.Inc(c.worker, obs.UserRollbacks)
		}
		if c.rec != nil {
			c.rec.ObserveOutcome(c.worker, c.sub, c.iteration, action, false)
		}
		c.clear()
		return false, true
	}
	if c.opts.Level == isolation.BoundedStaleness {
		violated := c.stalenessViolated()
		if skipCheck {
			// Chaos contract breaker (test-only): commit regardless. The
			// recorded validation evidence keeps the true counters, so the
			// post-hoc checker must flag the violation this commits.
			violated = false
		}
		if violated {
			if c.obs != nil {
				c.obs.Inc(c.worker, obs.StalenessRollbacks)
			}
			c.recordValidations(false)
			if c.rec != nil {
				c.rec.ObserveOutcome(c.worker, c.sub, c.iteration, action, false)
			}
			c.clear()
			return false, true
		}
	}
	c.recordValidations(true)
	c.installWrites()
	if c.rec != nil {
		c.rec.ObserveOutcome(c.worker, c.sub, c.iteration, action, true)
	}
	c.clear()
	c.iteration++
	return action == Done, false
}

// stalenessViolated reports whether any value read this iteration violates
// the staleness bound: superseded by more than S newer snapshots between
// read and commit, or — under ClockBound — older than the committing
// sub-transaction's own iteration minus S (the SSP clock rule). When a
// recorder is attached it also captures, per read, the counter value the
// decision was based on (into c.latests, aligned with c.reads), so the
// recorded evidence is exactly what validation saw — re-sampling later
// would race with concurrent installs and accuse correct commits.
func (c *Ctx) stalenessViolated() bool {
	s := c.opts.Staleness
	own := c.iteration + 1 // iteration being committed
	record := c.rec != nil
	if record {
		c.latests = c.latests[:0]
	}
	violated := false
	for _, r := range c.reads {
		latest := r.rec.Latest()
		if record {
			c.latests = append(c.latests, latest)
		}
		if latest > r.iter && latest-r.iter > s {
			violated = true
		}
		if c.opts.ClockBound && own > r.iter+s {
			violated = true
		}
		if violated && !record {
			return true
		}
	}
	return violated
}

// recordValidations emits one validation event per tracked read with the
// counter evidence captured by stalenessViolated. No-op without a recorder
// or outside bounded staleness (c.reads stays empty on the other levels).
func (c *Ctx) recordValidations(committed bool) {
	if c.rec == nil || len(c.reads) == 0 || len(c.latests) != len(c.reads) {
		return
	}
	for i, r := range c.reads {
		c.rec.ObserveValidation(c.worker, c.sub, c.iteration, r.rec, r.iter, c.latests[i], committed)
	}
}

// installWrites publishes the buffered writes using the cheapest mechanism
// the isolation level allows (Section 5.1): relaxed single-version stores
// for synchronous (the barrier provides the ordering) and asynchronous
// levels as well as bounded staleness under the single-writer hint; the
// general multi-version seqlock install otherwise.
func (c *Ctx) installWrites() {
	general := c.opts.Level == isolation.BoundedStaleness && !c.opts.SingleWriterHint
	for _, w := range c.rowWrites {
		data := c.arena[w.off : w.off+w.n]
		// The relaxed fast path only exists for single-version records;
		// multi-version records always take the seqlock install so their
		// snapshot array stays consistent.
		var iter uint64
		if general || w.rec.NumVersions() > 1 {
			iter = w.rec.Install(data)
		} else {
			iter = w.rec.InstallRelaxed(data)
		}
		if c.rec != nil {
			c.rec.ObserveInstall(c.worker, c.sub, c.iteration, w.rec, iter)
		}
	}
	for i, w := range c.colWrites {
		w.rec.StoreRelaxed(w.col, w.bits)
		// Bump each record's counter once per iteration, not once per
		// column, so staleness is counted in iterations. Consecutive writes
		// to the same record (a column sweep) are handled by run detection
		// alone; when the record shows up again after other records in
		// between (A,B,A), the bumped set prevents a second bump, which
		// would double-charge readers' staleness budgets.
		if i+1 < len(c.colWrites) && c.colWrites[i+1].rec == w.rec {
			continue
		}
		if c.firstBump(w.rec) {
			iter := w.rec.AddCounter()
			if c.rec != nil {
				c.rec.ObserveInstall(c.worker, c.sub, c.iteration, w.rec, iter)
			}
		}
	}
}

// firstBump records rec in the per-iteration bump set and reports whether
// it was absent before (i.e. whether the caller should bump its counter).
func (c *Ctx) firstBump(rec *storage.IterativeRecord) bool {
	if c.bumpIdx != nil {
		if _, ok := c.bumpIdx[rec]; ok {
			return false
		}
		c.bumpIdx[rec] = struct{}{}
		return true
	}
	for _, r := range c.bumped {
		if r == rec {
			return false
		}
	}
	c.bumped = append(c.bumped, rec)
	if len(c.bumped) > bumpedScanMax {
		c.bumpIdx = make(map[*storage.IterativeRecord]struct{}, 2*bumpedScanMax)
		for _, r := range c.bumped {
			c.bumpIdx[r] = struct{}{}
		}
	}
	return true
}

func (c *Ctx) clear() {
	c.reads = c.reads[:0]
	c.latests = c.latests[:0]
	if len(c.readIdx) > 0 {
		clear(c.readIdx)
	}
	c.rowWrites = c.rowWrites[:0]
	c.colWrites = c.colWrites[:0]
	c.arena = c.arena[:0]
	c.bumped = c.bumped[:0]
	if len(c.bumpIdx) > 0 {
		clear(c.bumpIdx)
	}
}
