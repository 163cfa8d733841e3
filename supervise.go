package db4ml

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"db4ml/internal/exec"
	"db4ml/internal/introspect"
	"db4ml/internal/obs"
	"db4ml/internal/plan"
	"db4ml/internal/resilience"
	"db4ml/internal/trace"
)

// This file is the supervision core a DB embeds: it admits every SubmitML
// and SubmitQuery, resolves a run's supervision settings, keeps the /debug
// job and query table, and runs the one retry loop that drives every
// handle kind to resolution. A handle kind supplies only its attempt — how
// to wait for one execution and how to start the next. See DESIGN.md §11.

// supervisor is the supervision state of one database: the defaults every
// run inherits, the admission gate, Close's drain of in-flight handles, and
// the debug table.
type supervisor struct {
	deadline  time.Duration
	retry     RetryPolicy
	gate      *resilience.Gate
	admitWait bool
	degrade   func(pressure float64, batch int) int

	// runs backs /debug/jobs and /debug/query; nil without a debug server.
	runs *runTable
	// queryID tags each query with a trace span id.
	queryID atomic.Uint64

	mu     sync.Mutex
	closed bool
	// handles counts every admitted submission until its handle resolved,
	// so Close can wait for the uber-transactions' commits and aborts, not
	// just the engine drain: "Close returned" must mean "no ML commit is
	// still in flight".
	handles sync.WaitGroup
}

func newSupervisor(oc *openConfig) supervisor {
	var runs *runTable
	if oc.debugAddr != "" {
		runs = &runTable{live: make(map[*handleCore]func(string) []introspect.JobInfo)}
	}
	return supervisor{
		deadline:  oc.deadline,
		retry:     oc.retry,
		gate:      resilience.NewGate(oc.maxInflight),
		admitWait: oc.admitWait,
		degrade:   oc.degrade,
		runs:      runs,
	}
}

// admit registers one submission with Close's drain and takes an admission
// slot for it. On success the caller owes exactly one release: the retry
// loop's, or its own when the submission fails before a loop starts.
func (s *supervisor) admit(ctx context.Context, o *Observer) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	// Registered under the same critical section as the closed check, so a
	// concurrent Close either rejects this submission or waits for it.
	s.handles.Add(1)
	s.mu.Unlock()
	// The slot spans the whole run — every retry attempt plus the final
	// commit or abort — so WithMaxInflight bounds real engine load, not just
	// the momentary submission rate.
	if err := s.gate.Acquire(ctx, s.admitWait); err != nil {
		s.handles.Done()
		if o != nil && err == resilience.ErrOverloaded {
			o.Inc(0, obs.LoadSheds)
		}
		return err
	}
	return nil
}

// release returns an admitted submission's slot and drain registration.
func (s *supervisor) release() {
	s.gate.Release()
	s.handles.Done()
}

// stopAdmitting makes every later admit fail with ErrClosed.
func (s *supervisor) stopAdmitting() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
}

// settings are one run's effective supervision values.
type settings struct {
	deadline time.Duration
	stall    time.Duration
	policy   RetryPolicy
	batch    int
}

// settings resolves run's supervision values — per-run overrides win over
// the database defaults — and degrades its batch size by the gate's
// pressure. Queries carry only a deadline and a retry policy.
func (s *supervisor) settings(run MLRun) settings {
	out := settings{deadline: run.Deadline, stall: run.StallTimeout, policy: s.retry, batch: run.BatchSize}
	if out.deadline <= 0 {
		out.deadline = s.deadline
	}
	if run.Retry != nil {
		out.policy = *run.Retry
	}
	if s.degrade != nil {
		if out.batch <= 0 {
			out.batch = exec.DefaultBatchSize
		}
		out.batch = s.degrade(s.gate.Pressure(), out.batch)
	}
	return out
}

// jobConfig is the engine configuration of run under the resolved settings.
func (set settings) jobConfig(run MLRun) exec.JobConfig {
	return exec.JobConfig{
		BatchSize:        set.batch,
		MaxIterations:    run.MaxIterations,
		Deadline:         set.deadline,
		StallTimeout:     set.stall,
		RegionOf:         run.RegionOf,
		IterationHook:    run.IterationHook,
		ConvergeTogether: run.ConvergeTogether,
		Observer:         run.Observer,
		Tracer:           run.Tracer,
		Label:            run.Label,
		Chaos:            run.Chaos,
		Recorder:         run.Recorder,
	}
}

// handleCore is the state every handle kind shares. The retry loop owns err
// and ts: it sets them, then closes done exactly once, after the last
// attempt's commit or abort.
type handleCore struct {
	// ctx is every attempt's context: a child of the submitter's ctx that
	// Cancel cancels with cause ErrJobCancelled.
	ctx      context.Context
	cancel   context.CancelCauseFunc
	done     chan struct{}
	attempts atomic.Int32
	ts       Timestamp
	err      error
}

func (h *handleCore) init(ctx context.Context) {
	h.ctx, h.cancel = context.WithCancelCause(ctx)
	h.done = make(chan struct{})
	h.attempts.Store(1)
}

// Cancel asks the run to stop: the current attempt stops at its next
// scheduling point or cursor stride, its uber-transactions abort (nothing
// becomes visible), no further attempts are made, and Wait reports
// ErrJobCancelled. Cancelling a resolved run is a no-op.
func (h *handleCore) Cancel() { h.cancel(ErrJobCancelled) }

// Attempts returns how many times the run has been submitted so far: 1
// without retries, more when the retry policy resubmitted it.
func (h *handleCore) Attempts() int { return int(h.attempts.Load()) }

// Done returns a channel closed when the run — including its final commit
// or abort — has resolved.
func (h *handleCore) Done() <-chan struct{} { return h.done }

// commitTS is the acknowledged commit timestamp: zero until the run
// resolved, and zero forever if it aborted. It never blocks.
func (h *handleCore) commitTS() Timestamp {
	select {
	case <-h.done:
		return h.ts
	default:
		return 0
	}
}

// cancelled is the error a cancelled handle resolves with: ErrJobCancelled
// after Cancel, the submitter's context error otherwise.
func (h *handleCore) cancelled() error {
	if context.Cause(h.ctx) == ErrJobCancelled {
		return ErrJobCancelled
	}
	return h.ctx.Err()
}

// state renders the handle's outcome for the debug tables.
func (h *handleCore) state() string {
	if h.err == nil {
		return "done"
	}
	return "failed: " + h.err.Error()
}

// attempt is what one handle kind supplies to the retry loop.
type attempt struct {
	policy RetryPolicy
	// token decorrelates this handle's jittered backoff from other handles
	// sharing the policy; fixed across attempts, so the schedule is
	// deterministic per handle. It is also the retry instants' trace id when
	// resubmit is nil.
	token  uint64
	obs    *Observer
	tracer *Tracer
	// try waits for the current attempt and resolves it: commit on success,
	// abort on failure. retrySafe false makes a failure terminal — a worker
	// may still be wedged inside the attempt's user code, or the failure is
	// final by nature (a crash, a failed commit, an expired query budget).
	try func() (retrySafe bool, err error)
	// resubmit starts the next attempt and returns the trace id it runs
	// under; nil when try itself executes each attempt.
	resubmit func() (traceID uint64, err error)
	// settle runs once after the final attempt, before Wait returns.
	settle func()
}

// supervise drives one admitted handle to resolution: it resolves attempts
// until one succeeds, one fails terminally, the policy declines a retry, or
// the handle's context is cancelled — an attempt that fails after
// cancellation reports the cancellation. Between attempts it backs off per
// the policy. It is the only retry loop: every handle kind runs under it.
func (s *supervisor) supervise(h *handleCore, a attempt) {
	defer func() {
		h.cancel(nil) // detaches ctx from the submitter's
		a.settle()
		s.gate.Release()
		close(h.done)
		s.handles.Done()
	}()
	for n := 1; ; n++ {
		retrySafe, err := a.try()
		if err == nil {
			return
		}
		if h.ctx.Err() != nil {
			h.err = h.cancelled()
			return
		}
		delay, retry := a.policy.ShouldRetryFor(a.token, err, n)
		if !retry || !retrySafe {
			h.err = err
			return
		}
		timer := time.NewTimer(delay)
		select {
		case <-timer.C:
		case <-h.ctx.Done():
			timer.Stop()
			h.err = h.cancelled()
			return
		}
		id := a.token
		if a.resubmit != nil {
			if id, err = a.resubmit(); err != nil {
				h.err = err
				return
			}
		}
		h.attempts.Store(int32(n + 1))
		if a.obs != nil {
			// Counted after the resubmission: the engine's BeginRun archives
			// the failed attempt's counters, so the count lands on the new one.
			a.obs.Add(0, obs.Retries, 1)
		}
		a.tracer.Instant(0, trace.KindRetry, id, int64(n+1))
	}
}

// superviseQuery starts the retry loop for one admitted query. Each attempt
// runs execute under the handle's context narrowed to the query's deadline;
// an expired budget is terminal, the same verdict as an ML job that outran
// WithDeadline.
func (s *supervisor) superviseQuery(h *QueryHandle, run QueryRun, env plan.Env,
	agg *introspect.Aggregator, execute func(ctx context.Context) error) {
	set := s.settings(MLRun{Deadline: run.Deadline, Retry: run.Retry})
	started := time.Now()
	go s.supervise(&h.handleCore, attempt{
		policy: set.policy,
		token:  env.Job,
		obs:    env.Obs,
		tracer: env.Tracer,
		try: func() (bool, error) {
			ctx, cancel := h.ctx, context.CancelFunc(func() {})
			if set.deadline > 0 {
				ctx, cancel = context.WithTimeout(h.ctx, set.deadline)
			}
			err := execute(ctx)
			cancel()
			if errors.Is(err, context.DeadlineExceeded) && h.ctx.Err() == nil {
				if env.Obs != nil {
					env.Obs.Inc(0, obs.DeadlineAborts)
				}
				env.Tracer.Instant(0, trace.KindAbort, env.Job, trace.AbortDeadline)
				return false, ErrJobDeadline
			}
			return true, err
		},
		settle: func() {
			info := introspect.QueryInfo{
				ID: env.Job, State: h.state(), Attempts: h.Attempts(),
				ElapsedMillis: time.Since(started).Milliseconds(),
			}
			if h.result != nil {
				info.Rows = len(h.result.Rows)
			}
			if h.explain != nil {
				info.Explain = h.explain.Render()
			}
			s.runs.recordQuery(info)
			agg.Complete(env.Obs)
		},
	})
}

// runTable backs /debug/jobs and /debug/query: every in-flight job's rows
// plus the most recently settled jobs and queries. A nil table records
// nothing.
type runTable struct {
	mu sync.Mutex
	// live maps each in-flight job to its row renderer: one row for a
	// single-kernel job, one per shard for a distributed one.
	live    map[*handleCore]func(state string) []introspect.JobInfo
	recent  []introspect.JobInfo
	queries []introspect.QueryInfo
}

// maxRecent bounds how many settled jobs and queries the table keeps.
const maxRecent = 64

// track lists a submitted job as running until settle.
func (t *runTable) track(h *handleCore, rows func(state string) []introspect.JobInfo) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.live[h] = rows
	t.mu.Unlock()
}

// settle moves a resolved job's rows from the live set to the recent list,
// stamped with its outcome and commit timestamp.
func (t *runTable) settle(h *handleCore) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, info := range t.live[h](h.state()) {
		info.CommitTS = uint64(h.ts)
		t.recent = append(t.recent, info)
	}
	delete(t.live, h)
	t.recent = lastRecent(t.recent)
}

// recordQuery appends one settled query.
func (t *runTable) recordQuery(info introspect.QueryInfo) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.queries = lastRecent(append(t.queries, info))
	t.mu.Unlock()
}

// jobs lists the settled jobs, then every running one.
func (t *runTable) jobs() []introspect.JobInfo {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := append([]introspect.JobInfo(nil), t.recent...)
	for _, rows := range t.live {
		out = append(out, rows("running")...)
	}
	return out
}

// queryInfos lists the settled queries.
func (t *runTable) queryInfos() []introspect.QueryInfo {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]introspect.QueryInfo(nil), t.queries...)
}

func lastRecent[T any](s []T) []T {
	if len(s) > maxRecent {
		return s[len(s)-maxRecent:]
	}
	return s
}
