package shard

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"db4ml/internal/chaos"
	"db4ml/internal/exec"
	"db4ml/internal/isolation"
	"db4ml/internal/itx"
	"db4ml/internal/obs"
	"db4ml/internal/storage"
	"db4ml/internal/trace"
	"db4ml/internal/txn"
)

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("shard: coordinator closed")

// RunRecorder extends the executor's history recorder with the
// uber-transaction outcome events the coordinator emits — the same
// contract as the facade's RunRecorder, restated here so internal/check
// can drive the coordinator directly.
type RunRecorder interface {
	exec.Recorder
	RecordUberCommit(ts storage.Timestamp)
	RecordUberAbort()
}

// Attachment names one shard-LOCAL table (and optionally a local row
// subset) a shard's slice of the distributed run updates.
type Attachment = itx.Attachment

// Plan is one shard's slice of a distributed uber-transaction: the local
// tables it attaches, the sub-transactions its pool drives, and the
// per-shard job configuration (label, observer, tracer, recorder, chaos,
// deadline — everything exec.JobConfig carries). A shard with no Subs
// still attaches and votes in the two-phase commit; it just runs no job.
type Plan struct {
	Attach []Attachment
	Subs   []itx.Sub
	Config exec.JobConfig
}

// UberRun describes one logical uber-transaction spanning every shard of
// the cluster.
type UberRun struct {
	// Isolation is shared by every shard's sub-transactions.
	Isolation isolation.Options
	// Plans holds one Plan per shard (index = shard id); required length
	// is the cluster's shard count.
	Plans []Plan
	// GlobalBarrier, under the synchronous level, ties every shard's
	// per-job barrier into one cross-shard rendezvous: no shard enters a
	// phase until all shards finished the previous one. Without it each
	// shard synchronizes only internally (bulk-synchronous per shard,
	// asynchronous across shards).
	GlobalBarrier bool
}

// Handle tracks one in-flight distributed uber-transaction.
type Handle struct {
	done chan struct{}

	jobs     []*exec.Job // index = shard; nil for shards that ran no job
	stats    []exec.Stats
	traceID  uint64 // correlation id shared by every shard's spans
	quiesced bool
	ts       storage.Timestamp
	err      error
}

// TraceID returns the coordinator-assigned correlation id every shard's
// trace spans of this uber-transaction carry.
func (h *Handle) TraceID() uint64 { return h.traceID }

// ShardJob returns shard i's engine job for this run, or nil when the
// shard ran no sub-transactions (it still attached and voted in the
// commit). Valid immediately after Submit; the debug server's job table
// reads per-shard progress through it.
func (h *Handle) ShardJob(i int) *exec.Job {
	if i < 0 || i >= len(h.jobs) {
		return nil
	}
	return h.jobs[i]
}

// Wait blocks until every shard's job finished and the distributed commit
// or abort settled. It returns per-shard stats (zero value for shards
// without subs), the global commit timestamp (0 on abort), and the first
// error.
func (h *Handle) Wait() ([]exec.Stats, storage.Timestamp, error) {
	<-h.done
	return h.stats, h.ts, h.err
}

// Cancel asks every shard's job to stop; the distributed uber-transaction
// aborts on all shards and nothing becomes visible anywhere. Cancelling a
// resolved run is a no-op.
func (h *Handle) Cancel() {
	for _, j := range h.jobs {
		if j != nil {
			j.Cancel()
		}
	}
}

// Quiesced reports, once Done is closed, whether every shard's workers
// acknowledged the end of their job within the grace. False means a worker
// may still be wedged inside a sub-transaction's user code: the run aborted
// and can publish nothing, but resubmitting the same sub-transaction
// instances underneath that worker would mix attempts.
func (h *Handle) Quiesced() bool { return h.quiesced }

// Done returns a channel closed when the run (including the distributed
// commit/abort) resolved.
func (h *Handle) Done() <-chan struct{} { return h.done }

// Coordinator runs distributed uber-transactions over a cluster. It owns
// the cross-shard protocol — nothing else in the system knows more than
// one shard exists.
type Coordinator struct {
	cluster *Cluster
	tracer  *trace.Tracer
	crash   *chaos.Killer
	uberSeq atomic.Uint64 // correlation ids for runs whose plans carry none

	mu       sync.Mutex
	closed   bool
	inflight sync.WaitGroup
}

// NewCoordinator builds a coordinator over the cluster.
func NewCoordinator(c *Cluster) *Coordinator { return &Coordinator{cluster: c} }

// SetTracer attaches a span tracer recording coordinator-level events on
// ring 0: the begin+attach span, one prepare span per shard, the 2PC
// commit window, and the commit instant of every resolved run — all
// stamped with the run's correlation id (Handle.TraceID), so they line up
// with the per-shard job spans in a merged cross-shard trace.
func (co *Coordinator) SetTracer(t *trace.Tracer) { co.tracer = t }

// SetCrash arms a crash kill-point inside the two-phase commit: the
// coordinator simulates a process death before prepare, after prepare, or
// between per-shard commit applications (the classic 2PC window), failing
// the run with chaos.ErrCrashed instead of acknowledging an outcome. The
// recovery harness (check.Run's crash trials) proves that restart-from-log
// restores committed-exactly-or-absent across the window.
func (co *Coordinator) SetCrash(k *chaos.Killer) { co.crash = k }

// Cluster returns the coordinated cluster.
func (co *Coordinator) Cluster() *Cluster { return co.cluster }

// Close rejects further Submits and waits for every in-flight run's
// distributed commit or abort. It does not stop the cluster's pools — the
// owner does that after Close returns.
func (co *Coordinator) Close() {
	co.mu.Lock()
	co.closed = true
	co.mu.Unlock()
	co.inflight.Wait()
}

// Submit starts one distributed uber-transaction and returns without
// waiting. The begin sequence is strictly ordered: every shard's
// uber-transaction is begun and its attachments installed before any
// shard's job is submitted, so a sub-transaction's cross-shard reads
// always find the sibling shards' iterative records in place.
//
// Commit is two-phase: once every shard's job converged, the coordinator
// prepares all shard managers in shard-id order, draws one timestamp from
// the shared oracle, and publishes every shard at it — so the distributed
// result appears atomically in timestamp order on all shards. Any shard
// failure (fault, deadline, stall, cancellation) aborts the
// uber-transaction on every shard; no shard ever commits a run another
// shard aborted.
func (co *Coordinator) Submit(run UberRun) (*Handle, error) {
	co.mu.Lock()
	if co.closed {
		co.mu.Unlock()
		return nil, ErrClosed
	}
	// Registered under the same critical section as the closed check, so a
	// concurrent Close either rejects this submission or waits for its
	// distributed commit/abort; every error return below must deregister.
	co.inflight.Add(1)
	co.mu.Unlock()

	n := co.cluster.Shards()
	if len(run.Plans) != n {
		co.inflight.Done()
		return nil, fmt.Errorf("shard: %d plans for %d shards", len(run.Plans), n)
	}

	// Correlation id: honor a caller-assigned id (the facade numbers runs
	// and queries from one sequence) or draw a coordinator-local one, then
	// stamp it on every shard's job so all fragments trace under one id.
	var uid uint64
	for i := range run.Plans {
		if run.Plans[i].Config.TraceID != 0 {
			uid = run.Plans[i].Config.TraceID
			break
		}
	}
	if uid == 0 {
		uid = co.uberSeq.Add(1)
	}
	for i := range run.Plans {
		run.Plans[i].Config.TraceID = uid
	}

	// Phase 0: begin + attach everywhere before anything executes.
	beginAt := co.tracer.Now()
	ubers := make([]*itx.Uber, 0, n)
	abortBegun := func() {
		for _, u := range ubers {
			_ = u.Abort()
		}
	}
	for i := 0; i < n; i++ {
		u, err := itx.BeginUber(co.cluster.Kernel(i).Mgr(), run.Isolation)
		if err != nil {
			abortBegun()
			co.inflight.Done()
			return nil, err
		}
		ubers = append(ubers, u)
		for _, a := range run.Plans[i].Attach {
			if err := u.Attach(a.Table, a.Rows, a.Versions); err != nil {
				abortBegun()
				co.inflight.Done()
				return nil, err
			}
		}
	}

	co.tracer.Span(0, trace.KindUberBegin, uid, int64(n), beginAt, co.tracer.Now()-beginAt)

	parties := 0
	for i := range run.Plans {
		if len(run.Plans[i].Subs) > 0 {
			parties++
		}
	}
	var rz *Rendezvous
	if run.GlobalBarrier && run.Isolation.Level == isolation.Synchronous && parties > 1 {
		rz = NewRendezvous(parties)
	}

	h := &Handle{
		done:    make(chan struct{}),
		jobs:    make([]*exec.Job, n),
		stats:   make([]exec.Stats, n),
		traceID: uid,
	}
	for i := 0; i < n; i++ {
		if len(run.Plans[i].Subs) == 0 {
			continue
		}
		cfg := run.Plans[i].Config
		// Every shard's job is submitted held and released only once ALL
		// shards are in: without the gate the first-submitted shard runs
		// iterations — and can prematurely converge — against sibling rows
		// still frozen at their seed values.
		cfg.Hold = true
		if rz != nil {
			// The rendezvous waits are where cross-shard skew hides; span
			// them on the shard's own tracer (ring 0 — the hooks run at
			// barrier granularity) under the run's correlation id.
			shardID, str := int64(i), cfg.Tracer
			cfg.BarrierHook = func(uint64, int32) {
				at := str.Now()
				rz.Arrive()
				str.Span(0, trace.KindRendezvous, uid, shardID, at, str.Now()-at)
			}
			// ConvergeTogether must be decided globally or shards retire at
			// different rounds and the distributed fixpoint diverges from
			// the single-kernel one. Every shard's install barrier casts its
			// local tally; all retire in the same round or none do.
			cfg.ConvergeVote = func(unanimous bool) bool {
				at := str.Now()
				v := rz.ArriveVote(unanimous)
				str.Span(0, trace.KindRendezvous, uid, shardID, at, str.Now()-at)
				return v
			}
		}
		j, err := co.cluster.Kernel(i).Pool().Submit(run.Plans[i].Subs, run.Isolation, cfg)
		if err != nil {
			// Tear down the shards already running: cancel, drain, release
			// any rendezvous waiter, then abort everywhere.
			for s := 0; s < i; s++ {
				if h.jobs[s] != nil {
					h.jobs[s].Cancel()
				}
			}
			if rz != nil {
				rz.Break()
			}
			for s := 0; s < i; s++ {
				if h.jobs[s] != nil {
					// Held batches never drain; release the cancelled job
					// so Wait can observe the drained retirement.
					h.jobs[s].Release()
					_, _ = h.jobs[s].Wait()
					h.jobs[s].Quiesce(exec.QuiesceGrace)
				}
			}
			abortBegun()
			co.inflight.Done()
			return nil, err
		}
		h.jobs[i] = j
		if rz != nil {
			// The shard's party leaves when its job finishes (converged,
			// cancelled, or force-retired), so sibling barriers stop waiting
			// on it. Watching Done — not Wait — keeps this release ahead of
			// the resolve goroutine's sequential draining.
			go func(j *exec.Job) { <-j.Done(); rz.Leave() }(j)
		}
	}
	// All shards are in: start them together.
	for _, j := range h.jobs {
		if j != nil {
			j.Release()
		}
	}

	go co.resolve(h, run, ubers, rz)
	return h, nil
}

// resolve drives one submitted run to its distributed commit or abort.
func (co *Coordinator) resolve(h *Handle, run UberRun, ubers []*itx.Uber, rz *Rendezvous) {
	defer co.inflight.Done()
	defer close(h.done)
	if rz != nil {
		// No worker may stay parked in a barrier hook after the run
		// resolves — the pools must always be drainable.
		defer rz.Break()
	}

	var firstErr error
	failedShard := -1 // the shard convicted of causing a distributed abort
	h.quiesced = true
	for i, j := range h.jobs {
		if j == nil {
			continue
		}
		stats, err := j.Wait()
		h.stats[i] = stats
		if !j.Quiesce(exec.QuiesceGrace) {
			h.quiesced = false
		}
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("shard %d: %w", i, err)
			failedShard = i
		}
	}

	recorders := distinctRecorders(run)
	abortBy := func(shard int) {
		if shard >= 0 && shard < len(run.Plans) {
			if o := run.Plans[shard].Config.Observer; o != nil {
				o.Inc(0, obs.TwoPCAborts)
			}
		}
	}
	if firstErr != nil {
		for _, u := range ubers {
			_ = u.Abort()
		}
		for _, r := range recorders {
			r.RecordUberAbort()
		}
		abortBy(failedShard)
		h.err = firstErr
		return
	}

	// Crash kill-points: a fired point means the coordinator process "died"
	// at that instant — the run resolves with ErrCrashed and NO outcome is
	// recorded, because a dead coordinator acknowledges nothing. In-memory
	// state is left exactly as the crash would leave it (e.g. some shards
	// published, others not, for the between-commits window); the harness
	// discards this kernel and proves recovery repairs the log's view of it.
	if co.crash.At(chaos.CrashBeforePrepare) {
		for _, u := range ubers {
			_ = u.Abort()
		}
		h.err = chaos.ErrCrashed
		return
	}

	// Two-phase commit: prepare every shard in shard-id order (holding
	// each manager's commit lock), choose one timestamp, publish all. The
	// window from the first prepare to the last per-shard publish is the
	// stretch a crash turns into coordinated recovery — it gets its own
	// span and histogram.
	windowStart := time.Now()
	windowAt := co.tracer.Now()
	preps := make([]*txn.Prepared, len(ubers))
	for i, u := range ubers {
		prepStart := time.Now()
		prepAt := co.tracer.Now()
		p, err := u.Prepare()
		prepNanos := int64(time.Since(prepStart))
		co.tracer.Span(0, trace.KindPrepare, h.traceID, int64(i), prepAt, co.tracer.Now()-prepAt)
		if o := run.Plans[i].Config.Observer; o != nil {
			o.Inc(0, obs.TwoPCPrepares)
			o.RecordLatency(0, obs.TwoPCPrepareLatency, prepNanos)
		}
		if err != nil {
			for k := 0; k < i; k++ {
				preps[k].Abort()
			}
			for _, u := range ubers {
				_ = u.Abort()
			}
			for _, r := range recorders {
				r.RecordUberAbort()
			}
			abortBy(i)
			h.err = err
			return
		}
		preps[i] = p
	}
	if co.crash.At(chaos.CrashAfterPrepare) {
		for _, p := range preps {
			p.Abort()
		}
		for _, u := range ubers {
			_ = u.Abort()
		}
		h.err = chaos.ErrCrashed
		return
	}
	ts := co.cluster.Oracle().Next()
	for i, u := range ubers {
		if i > 0 && co.crash.At(chaos.CrashBetweenShardCommits) {
			// Shards [0,i) have published at ts; shards [i,n) never will.
			// Release their commit locks and abort their ubers so the dead
			// kernel stays drainable, but leave the torn publish in place —
			// that asymmetry is precisely what recovery must erase.
			for k := i; k < len(preps); k++ {
				preps[k].Abort()
			}
			for k := i; k < len(ubers); k++ {
				_ = ubers[k].Abort()
			}
			h.err = chaos.ErrCrashed
			return
		}
		if err := u.CommitPrepared(preps[i], ts); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("shard %d commit: %w", i, err)
		}
	}
	if firstErr != nil {
		// Commit-phase publish errors are config bugs (e.g. an empty
		// attachment); the timestamp is already drawn, so report rather
		// than pretend atomicity held.
		h.err = firstErr
		return
	}
	h.ts = ts
	windowNanos := int64(time.Since(windowStart))
	co.tracer.Span(0, trace.KindCommitWindow, h.traceID, int64(ts), windowAt, co.tracer.Now()-windowAt)
	co.tracer.Instant(0, trace.KindCommit, h.traceID, int64(ts))
	for i := range run.Plans {
		if o := run.Plans[i].Config.Observer; o != nil {
			o.RecordLatency(0, obs.TwoPCCommitWindowLatency, windowNanos)
		}
	}
	for _, r := range recorders {
		r.RecordUberCommit(ts)
	}
}

// distinctRecorders collects the unique RunRecorders across all shard
// plans, so an outcome event fires once per recorder: once per shard when
// each shard records separately (the invariant harness), and once when
// several shards share one.
func distinctRecorders(run UberRun) []RunRecorder {
	var out []RunRecorder
	for i := range run.Plans {
		rr, ok := run.Plans[i].Config.Recorder.(RunRecorder)
		if !ok || rr == nil {
			continue
		}
		dup := false
		for _, seen := range out {
			if seen == rr {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, rr)
		}
	}
	return out
}
