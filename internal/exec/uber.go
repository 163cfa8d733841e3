package exec

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"db4ml/internal/chaos"
	"db4ml/internal/isolation"
	"db4ml/internal/itx"
	"db4ml/internal/obs"
	"db4ml/internal/storage"
	"db4ml/internal/trace"
	"db4ml/internal/txn"
)

// QuiesceGrace bounds how long a failed uber-transaction waits, after a
// forced retirement, for in-flight workers to acknowledge the cancellation
// before it aborts anyway. A worker still wedged past the grace can no
// longer install anything (the engine re-checks cancellation between
// Execute and Finalize), but resubmitting the same sub-transactions
// underneath it would be unsafe — so a non-quiesced job is never retried.
const QuiesceGrace = time.Second

// RunRecorder is a Recorder that also receives the uber-transaction's
// outcome: Finish reports the commit (with the timestamp its result became
// visible at) or the abort to every distinct RunRecorder among the parts'
// JobConfig.Recorder. internal/check implements it.
type RunRecorder interface {
	Recorder
	RecordUberCommit(ts storage.Timestamp)
	RecordUberAbort()
}

// UberPart is one kernel's share of an uber-transaction: the tables it
// updates on that kernel, how to build the sub-transactions its pool
// drives, and their job configuration.
type UberPart struct {
	// Pool runs the part's sub-transactions; Mgr is the kernel's
	// transaction manager. Every part's manager must draw from one oracle.
	Pool *Pool
	Mgr  *txn.Manager
	// Attach lists the tables the part's sub-transactions update, attached
	// in order before any part's Build runs.
	Attach []itx.Attachment
	// Build constructs the part's sub-transactions at its snapshot, with
	// every part's attachments in place. A non-nil regionOf replaces
	// Job.RegionOf. A part with no sub-transactions runs no job; it still
	// attaches and commits.
	Build func(ts storage.Timestamp) (subs []itx.Sub, regionOf func(int) int, err error)
	// Job configures the part's job.
	Job JobConfig
}

// UberSpec describes one uber-transaction (paper §4, Algorithm 1) over one
// or more kernels.
type UberSpec struct {
	// Isolation is the ML isolation level of every sub-transaction.
	Isolation isolation.Options
	// Parts holds one part per kernel, prepared and committed in order.
	Parts []UberPart
	// GlobalBarrier, under the synchronous level, ties every part's
	// per-job barrier into one rendezvous: no part enters a phase until
	// all finished the previous one, and ConvergeTogether is decided by
	// every part's vote. Without it each part synchronizes only
	// internally.
	GlobalBarrier bool
	// Crash, when non-nil, arms the commit's kill-points (before prepare,
	// after prepare, between part commits, after publish): a fired point
	// fails Finish with chaos.ErrCrashed and records no outcome.
	Crash *chaos.Killer
	// Tracer receives the lifecycle spans: begin+attach, one prepare per
	// part, the commit window and the commit instant. nil records none.
	Tracer *trace.Tracer
}

// UberRun is a started uber-transaction and the jobs driving its parts.
type UberRun struct {
	spec  UberSpec
	ubers []*itx.Uber
	jobs  []*Job // index = part; nil for a part with no sub-transactions
	rz    *rendezvous
	id    uint64
	// failed is 1 + the part whose job failed first on a run of several
	// parts (0: none); Finish reports that failure, not the cancellations
	// it caused in the siblings.
	failed atomic.Int32
	// retryable is Finish's verdict on a failure: every part aborted
	// before publishing and every job quiesced.
	retryable bool
}

// StartUber runs the lifecycle up to the jobs: it begins an
// uber-transaction on every part's manager and attaches its tables, then
// builds every part's sub-transactions and submits them held, and releases
// all jobs together once every part is in — so no part iterates against a
// sibling whose iterative records are not yet in place. Every error aborts
// every begun part, so a failed start leaves the tables untouched and no
// snapshot pinned; a nil pool returns ErrNoPool before anything begins.
func StartUber(spec UberSpec) (*UberRun, error) {
	if len(spec.Parts) == 0 {
		return nil, errors.New("exec: an uber-transaction needs at least one part")
	}
	for i, p := range spec.Parts {
		if p.Pool == nil {
			return nil, ErrNoPool
		}
		if p.Mgr.Oracle() != spec.Parts[0].Mgr.Oracle() {
			return nil, fmt.Errorf("exec: part %d's manager does not share part 0's oracle", i)
		}
	}
	n := len(spec.Parts)
	r := &UberRun{spec: spec, ubers: make([]*itx.Uber, 0, n), jobs: make([]*Job, n), id: spec.Parts[0].Job.TraceID}
	beginAt := spec.Tracer.Now()
	for _, p := range spec.Parts {
		u, err := itx.BeginUber(p.Mgr, spec.Isolation)
		if err != nil {
			r.teardown()
			return nil, err
		}
		r.ubers = append(r.ubers, u)
		for _, a := range p.Attach {
			if err := u.Attach(a.Table, a.Rows, a.Versions); err != nil {
				r.teardown()
				return nil, err
			}
		}
	}
	if spec.GlobalBarrier && spec.Isolation.Level == isolation.Synchronous && n > 1 {
		r.rz = newRendezvous(n)
	}
	for i, p := range spec.Parts {
		subs, regionOf, err := p.Build(r.ubers[i].Snapshot())
		if err != nil {
			r.teardown()
			return nil, err
		}
		if len(subs) == 0 {
			if r.rz != nil {
				r.rz.Leave() // a part without a job never arrives
			}
			continue
		}
		cfg := p.Job
		if regionOf != nil {
			cfg.RegionOf = regionOf
		}
		// Every part's spans carry one correlation id: part 0's
		// JobConfig.TraceID, else the first submitted job's.
		cfg.TraceID = r.id
		cfg.Hold = true
		r.hook(&cfg, i)
		j, err := p.Pool.Submit(subs, spec.Isolation, cfg)
		if err != nil {
			r.teardown()
			return nil, err
		}
		if r.id == 0 {
			r.id = j.traceID
		}
		r.jobs[i] = j
	}
	for i, j := range r.jobs {
		if j == nil {
			continue
		}
		if n > 1 {
			// When a part's job finishes it leaves the rendezvous, so
			// sibling barriers stop waiting on it, and a failure stops the
			// siblings, since the run aborts whatever they do. Watching Done,
			// not Wait, keeps both ahead of Finish's sequential waits.
			go func() {
				<-j.Done()
				if j.Err() != nil && r.failed.CompareAndSwap(0, int32(i+1)) {
					r.Cancel()
				}
				if r.rz != nil {
					r.rz.Leave()
				}
			}()
		}
		j.Release()
	}
	spec.Tracer.Span(0, trace.KindUberBegin, r.id, int64(n), beginAt, spec.Tracer.Now()-beginAt)
	return r, nil
}

// hook points part i's barrier and convergence vote at the rendezvous,
// spanning each wait on the part's own tracer under the run's id.
func (r *UberRun) hook(cfg *JobConfig, i int) {
	if r.rz == nil {
		return
	}
	part, tr := int64(i), cfg.Tracer
	cfg.BarrierHook = func(uint64, int32) {
		at := tr.Now()
		r.rz.Arrive()
		tr.Span(0, trace.KindRendezvous, r.id, part, at, tr.Now()-at)
	}
	cfg.ConvergeVote = func(unanimous bool) bool {
		at := tr.Now()
		v := r.rz.ArriveVote(unanimous)
		tr.Span(0, trace.KindRendezvous, r.id, part, at, tr.Now()-at)
		return v
	}
}

// teardown undoes a failed start: it stops the jobs submitted so far
// (cancel, release, drain), then aborts every begun part.
func (r *UberRun) teardown() {
	r.Cancel()
	if r.rz != nil {
		r.rz.Break()
	}
	for _, j := range r.jobs {
		if j != nil {
			// A held batch never drains; release the cancelled job so Wait
			// can observe the drained retirement.
			j.Release()
			_, _ = j.Wait()
			j.Quiesce(QuiesceGrace)
		}
	}
	r.abort()
}

// abort aborts every begun part.
func (r *UberRun) abort() {
	for _, u := range r.ubers {
		_ = u.Abort()
	}
}

// TraceID returns the correlation id every part's trace spans carry: part
// 0's JobConfig.TraceID when set, else the first job's id.
func (r *UberRun) TraceID() uint64 { return r.id }

// Jobs returns the parts' jobs (index = part; nil for a part that runs no
// sub-transactions).
func (r *UberRun) Jobs() []*Job { return r.jobs }

// Stats returns every part's stats (index = part; zero for a part without
// a job): a live snapshot while the jobs run, their final stats after.
func (r *UberRun) Stats() []Stats {
	out := make([]Stats, len(r.jobs))
	for i, j := range r.jobs {
		if j != nil {
			out[i] = j.Stats()
		}
	}
	return out
}

// Cancel asks every part's job to stop; Finish then aborts every part.
// Safe to call from any goroutine, and a no-op once the jobs finished.
func (r *UberRun) Cancel() {
	for _, j := range r.jobs {
		if j != nil {
			j.Cancel()
		}
	}
}

// Retryable reports, after Finish failed, whether the same
// sub-transactions may be resubmitted: every part aborted without
// publishing anything and every job's workers acknowledged the end within
// QuiesceGrace. A worker still wedged in user code, a crash, or a failed
// commit makes a failure final.
func (r *UberRun) Retryable() bool { return r.retryable }

// Finish waits for every part's job and settles the uber-transaction in
// the caller's goroutine. If any job failed it aborts every part, so
// nothing is published and every snapshot pin is released. Otherwise it
// commits in two phases: it prepares every part's manager in part order,
// draws one timestamp from the shared oracle and publishes every part at
// it, so the result appears atomically in timestamp order on every kernel.
// It returns the parts' stats combined (see SumStats), the commit
// timestamp, and the first error — chaos.ErrCrashed when a kill-point of
// spec.Crash fired.
func (r *UberRun) Finish() (Stats, storage.Timestamp, error) {
	if r.rz != nil {
		// No worker may stay parked in a barrier hook after the run
		// resolves — the pools must always be drainable.
		defer r.rz.Break()
	}
	var err error
	failed := -1
	quiesced := true
	for i, j := range r.jobs {
		if j == nil {
			continue
		}
		_, jerr := j.Wait()
		quiesced = j.Quiesce(QuiesceGrace) && quiesced
		if jerr != nil && err == nil {
			err, failed = jerr, i
		}
	}
	if f := r.failed.Load(); f > 0 {
		failed = int(f - 1)
		err = r.jobs[failed].Err()
	}
	stats := SumStats(r.Stats())
	// abort settles a run that failed before publishing: every part
	// aborts, the abort is reported, and the part that caused it convicted.
	abort := func(part int, err error) (Stats, storage.Timestamp, error) {
		r.retryable = quiesced
		r.abort()
		r.record(func(rr RunRecorder) { rr.RecordUberAbort() })
		if o := r.spec.Parts[part].Job.Observer; o != nil {
			o.Inc(0, obs.TwoPCAborts)
		}
		return stats, 0, err
	}
	if err != nil {
		return abort(failed, err)
	}
	crash := r.spec.Crash
	if crash.At(chaos.CrashBeforePrepare) {
		r.abort()
		return stats, 0, chaos.ErrCrashed
	}

	// The window from the first prepare to the last publish is the stretch
	// a crash turns into coordinated recovery: it gets its own span and
	// histogram.
	tr := r.spec.Tracer
	windowStart, windowAt := time.Now(), tr.Now()
	preps := make([]*txn.Prepared, len(r.ubers))
	for i, u := range r.ubers {
		prepStart, prepAt := time.Now(), tr.Now()
		p, err := u.Prepare()
		tr.Span(0, trace.KindPrepare, r.id, int64(i), prepAt, tr.Now()-prepAt)
		if o := r.spec.Parts[i].Job.Observer; o != nil {
			o.Inc(0, obs.TwoPCPrepares)
			o.RecordLatency(0, obs.TwoPCPrepareLatency, int64(time.Since(prepStart)))
		}
		if err != nil {
			for _, p := range preps[:i] {
				p.Abort()
			}
			return abort(i, err)
		}
		preps[i] = p
	}
	if crash.At(chaos.CrashAfterPrepare) {
		for _, p := range preps {
			p.Abort()
		}
		r.abort()
		return stats, 0, chaos.ErrCrashed
	}
	ts := r.spec.Parts[0].Mgr.Oracle().Next()
	for i, u := range r.ubers {
		if i > 0 && crash.At(chaos.CrashBetweenShardCommits) {
			// Parts [0,i) published at ts; parts [i,n) never will. Release
			// their commit locks and abort them so the dead kernel stays
			// drainable, but leave the torn publish in place — that
			// asymmetry is what recovery must erase.
			for k := i; k < len(preps); k++ {
				preps[k].Abort()
				_ = r.ubers[k].Abort()
			}
			return stats, 0, chaos.ErrCrashed
		}
		if cerr := u.CommitPrepared(preps[i], ts); cerr != nil && err == nil {
			err = cerr
		}
	}
	if err != nil {
		// A publish error is a configuration bug (e.g. an empty
		// attachment); the timestamp is already drawn, so report it rather
		// than pretend atomicity held.
		r.record(func(rr RunRecorder) { rr.RecordUberAbort() })
		return stats, 0, err
	}
	if crash.At(chaos.CrashAfterPublish) {
		// Published in memory on every kernel, never logged: the commit
		// vanishes on recovery, and it is never acknowledged.
		return stats, 0, chaos.ErrCrashed
	}
	window := int64(time.Since(windowStart))
	tr.Span(0, trace.KindCommitWindow, r.id, int64(ts), windowAt, tr.Now()-windowAt)
	tr.Instant(0, trace.KindCommit, r.id, int64(ts))
	for _, p := range r.spec.Parts {
		if o := p.Job.Observer; o != nil {
			o.RecordLatency(0, obs.TwoPCCommitWindowLatency, window)
		}
	}
	r.record(func(rr RunRecorder) { rr.RecordUberCommit(ts) })
	return stats, ts, nil
}

// record reports an outcome to each distinct RunRecorder among the parts
// once: once per part when each records separately, once when parts share
// one.
func (r *UberRun) record(event func(RunRecorder)) {
	var seen []RunRecorder
	for _, p := range r.spec.Parts {
		if rr, ok := p.Job.Recorder.(RunRecorder); ok && !slices.Contains(seen, rr) {
			seen = append(seen, rr)
			event(rr)
		}
	}
}
