package exec

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"db4ml/internal/chaos"
	"db4ml/internal/isolation"
	"db4ml/internal/itx"
	"db4ml/internal/numa"
	"db4ml/internal/obs"
	"db4ml/internal/queue"
	"db4ml/internal/resilience"
	"db4ml/internal/trace"
)

// ErrPoolClosed is returned by Pool.Submit after Close has begun.
var ErrPoolClosed = errors.New("exec: pool closed")

// ErrNoPool is returned by Pool.Submit on a nil pool: every job runs on a
// caller-owned Pool.
var ErrNoPool = errors.New("exec: no pool")

// ErrJobCancelled is returned by Job.Wait when the job was retired by
// Cancel before it converged.
var ErrJobCancelled = errors.New("exec: job cancelled")

// JobConfig tunes one job — one uber-transaction's worth of
// sub-transactions — submitted to a Pool. Worker count, topology, and
// work stealing are properties of the Pool; everything per-run lives here.
type JobConfig struct {
	// BatchSize is the number of sub-transactions per scheduling batch;
	// defaults to DefaultBatchSize.
	BatchSize int
	// MaxIterations force-retires a sub-transaction after that many
	// committed iterations (0 = run to convergence): the paper's "pre-set
	// and fixed number of iterations" cap.
	MaxIterations uint64
	// MaxAttempts force-retires a sub-transaction after that many finalized
	// attempts, rolled-back ones included — the livelock backstop for a
	// sub-transaction that perpetually rolls back (e.g. SSP-throttled behind
	// a straggler that never advances) and so never reaches MaxIterations.
	// Defaults to MaxIterations×64 when MaxIterations is set.
	MaxAttempts uint64
	// RegionOf routes sub-transaction i to a NUMA region queue; nil
	// spreads round-robin.
	RegionOf func(i int) int
	// IterationHook runs before every sub-transaction execution with the
	// worker id. Experiments use it to inject stragglers (Figure 9).
	IterationHook func(worker int)
	// ConvergeTogether (synchronous level only) retires sub-transactions
	// collectively at the first round where every live one votes Done —
	// the global convergence criterion of bulk-synchronous engines like
	// Galois, which synchronous PageRank needs to reproduce Galois' exact
	// fixpoint (Section 7.2.1).
	ConvergeTogether bool
	// Observer, when non-nil, collects this job's telemetry; its snapshot
	// is tagged with the job's label. One observer serves one job at a
	// time — give concurrent jobs separate observers.
	Observer *obs.Observer
	// Tracer, when non-nil, records this job's scheduling timeline (batch
	// passes, queue waits, barrier skew, steals, faults, aborts) into its
	// per-worker ring buffers; see internal/trace. Tracers are pool-shaped,
	// not job-shaped — size one with the pool's worker count and share it
	// across every job submitted.
	Tracer *trace.Tracer
	// TraceID, when nonzero, overrides the pool-assigned job id on every
	// trace event this job records. StartUber sets one id on every part of
	// an uber-transaction, so spans recorded by different pools correlate
	// in a merged cross-shard trace.
	TraceID uint64
	// Label names the job in telemetry snapshots; defaults to "job-<id>".
	Label string
	// Chaos, when non-nil, perturbs this job's scheduling at the chaos
	// injection points (batch start, post-validate, recirculation); see
	// internal/chaos. Steal perturbation is pool-level (Config.Chaos).
	Chaos chaos.Injector
	// Recorder, when non-nil, receives this job's isolation-relevant
	// history (reads, validations, installs, barrier flips) for post-hoc
	// invariant checking; see internal/check.
	Recorder Recorder
	// BarrierHook, when non-nil, runs at every synchronous-level barrier
	// flip on the last-arriving worker, BEFORE the new phase is stored or
	// any batch re-pushed. It may block: StartUber uses it to extend the
	// per-job barrier into a rendezvous across an uber-transaction's parts
	// (UberSpec.GlobalBarrier), released when a sibling job finishes.
	BarrierHook func(round uint64, nextPhase int32)
	// ConvergeVote, when non-nil with ConvergeTogether set, turns the
	// collective-retirement decision over to an external arbiter: the pool
	// reports whether every locally live sub-transaction voted Done this
	// round, and retires them only if the hook returns true. Like
	// BarrierHook it may block and is called once per round on the
	// last-arriving worker; StartUber points it at the parts' rendezvous
	// so a job spanning kernels reaches its fixpoint globally.
	ConvergeVote func(unanimous bool) bool
	// Hold submits the job fully armed — contexts, watchdogs, telemetry —
	// but publishes no batch to the run queues: no worker executes a
	// sub-transaction until Job.Release. StartUber holds every part's job
	// and releases them together, so no part iterates against a sibling
	// whose job was not yet submitted. Release promptly: the deadline and
	// stall watchdogs run from Submit.
	Hold bool
	// Deadline, when nonzero, bounds the job's wall-clock runtime: past it
	// the job is retired and Wait reports resilience.ErrJobDeadline.
	// Enforcement is two-layered — a cooperative per-finalize check
	// (itx.ForceDeadline) retires active-but-nonconvergent jobs mid-batch,
	// and the watchdog timer catches jobs whose batches stopped flowing,
	// force-finishing the job after a short drain grace so even a worker
	// wedged inside user code cannot hang Wait past the deadline.
	Deadline time.Duration
	// StallTimeout, when nonzero, arms the progress watchdog: a job whose
	// iteration heartbeat does not advance for this long is convicted and
	// Wait reports resilience.ErrJobStalled — even when a worker is wedged
	// inside user code and can never reach a scheduling point.
	StallTimeout time.Duration
}

func (jc JobConfig) withDefaults() JobConfig {
	if jc.BatchSize <= 0 {
		jc.BatchSize = DefaultBatchSize
	}
	if jc.MaxAttempts == 0 && jc.MaxIterations > 0 {
		jc.MaxAttempts = deriveMaxAttempts(jc.MaxIterations)
	}
	return jc
}

// Pool is the persistent execution engine: a fixed set of worker
// goroutines, each pinned to a simulated NUMA region, started once and
// shared by every job submitted until Close. Batches from concurrent jobs
// interleave through per-region scheduling — a worker's pass round-robins
// across the jobs with work queued in its region — so one long training
// job cannot starve another.
type Pool struct {
	topo     numa.Topology
	workers  int
	stealing bool
	chaos    chaos.Injector // nil in production; perturbs steals (Config.Chaos)

	// gen/waiters implement worker parking without lost wakeups: a worker
	// reads gen, re-checks the queues, and sleeps only while gen is
	// unchanged; every push bumps gen before checking waiters, so either
	// the sleeper sees the new gen or the pusher sees the waiter.
	gen     atomic.Uint64
	waiters atomic.Int64

	jobs   atomic.Pointer[[]*Job] // copy-on-write active-job list
	rr     []atomic.Uint64        // per-region round-robin job cursor
	nextID atomic.Uint64
	closed atomic.Bool

	mu      sync.Mutex
	cond    *sync.Cond // workers park here
	drained *sync.Cond // Close waits here for active jobs
	closing bool
	active  int

	wg sync.WaitGroup

	// Maintenance goroutines (Maintain) are joined after the workers: they
	// run off the worker path and must not outlive the pool.
	maintDone chan struct{}
	maintWG   sync.WaitGroup
}

// NewPool validates cfg (see Config.Validate), starts cfg.Workers worker
// goroutines, and returns the running pool.
func NewPool(cfg Config) (*Pool, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p := &Pool{
		topo:     cfg.Topology,
		workers:  cfg.Workers,
		stealing: !cfg.DisableWorkStealing && cfg.Topology.Regions > 1,
		chaos:    cfg.Chaos,
		rr:       make([]atomic.Uint64, cfg.Topology.Regions),
	}
	p.cond = sync.NewCond(&p.mu)
	p.drained = sync.NewCond(&p.mu)
	p.maintDone = make(chan struct{})
	empty := make([]*Job, 0)
	p.jobs.Store(&empty)
	for w := 0; w < p.workers; w++ {
		p.wg.Add(1)
		go p.worker(w)
	}
	return p, nil
}

// Workers returns the pool's worker count.
func (p *Pool) Workers() int { return p.workers }

// Topology returns the pool's simulated NUMA layout.
func (p *Pool) Topology() numa.Topology { return p.topo }

// Close gracefully shuts the pool down: it stops admitting jobs, waits for
// every active job to finish, and joins the workers. Safe to call more
// than once.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closing = true
	for p.active > 0 {
		p.drained.Wait()
	}
	p.mu.Unlock()
	if !p.closed.Swap(true) {
		close(p.maintDone)
		p.gen.Add(1)
		p.mu.Lock()
		p.cond.Broadcast()
		p.mu.Unlock()
	}
	p.wg.Wait()
	p.maintWG.Wait()
}

// Maintain runs fn every interval on a pool-owned goroutine until the
// returned stop function is called or the pool closes, whichever comes
// first. Maintenance work (version garbage collection, telemetry flushes)
// rides on the pool's lifecycle without ever occupying a worker: fn runs
// off the scheduling path, so a slow pass delays only the next pass, never
// a batch. Stop is idempotent and returns after any in-flight fn call.
func (p *Pool) Maintain(interval time.Duration, fn func()) (stop func()) {
	if interval <= 0 || fn == nil || p.closed.Load() {
		return func() {}
	}
	done := make(chan struct{})
	exited := make(chan struct{})
	var once sync.Once
	p.maintWG.Add(1)
	go func() {
		defer p.maintWG.Done()
		defer close(exited)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-p.maintDone:
				return
			case <-done:
				return
			case <-tick.C:
				fn()
			}
		}
	}()
	return func() {
		once.Do(func() { close(done) })
		<-exited
	}
}

// notify wakes parked workers after new batches were pushed.
func (p *Pool) notify() {
	p.gen.Add(1)
	if p.waiters.Load() > 0 {
		p.mu.Lock()
		p.cond.Broadcast()
		p.mu.Unlock()
	}
}

// Submit schedules subs as one job under the given isolation options and
// returns immediately; drive the result through the returned Job. Batches
// are routed to region queues via jc.RegionOf and processed by the pool's
// workers alongside every other active job.
func (p *Pool) Submit(subs []itx.Sub, opts isolation.Options, jc JobConfig) (*Job, error) {
	if p == nil {
		return nil, ErrNoPool
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	jc = jc.withDefaults()
	regions := p.topo.Regions
	regionOf := jc.RegionOf
	if regionOf == nil {
		regionOf = func(i int) int { return i % regions }
	}

	j := &Job{
		pool:     p,
		opts:     opts,
		cfg:      jc,
		state:    itx.NewJobState(int64(len(subs)), jc.MaxIterations, jc.MaxAttempts),
		cnt:      newCounters(p.workers),
		rq:       make([]*queue.Queue[*batch], regions),
		syncMode: opts.Level == isolation.Synchronous,
		done:     make(chan struct{}),
		start:    time.Now(),
		total:    int64(len(subs)),
		instr:    jc.Observer != nil || jc.Tracer != nil,
	}
	for r := range j.rq {
		j.rq[r] = queue.New[*batch]()
	}
	// Group the subs by home region with a counting sort so every batch is
	// a window of one sched slab: set-up allocates per job, not per sub.
	home := make([]int, len(subs))
	end := make([]int, regions+1)
	for i := range subs {
		r := regionOf(i) % regions
		if r < 0 {
			r = 0
		}
		home[i] = r
		end[r+1]++
	}
	nb := 0
	for r := 0; r < regions; r++ {
		nb += (end[r+1] + jc.BatchSize - 1) / jc.BatchSize
		end[r+1] += end[r]
	}
	scheds := make([]sched, len(subs))
	ctxs := itx.NewCtxs(opts, -1, len(subs))
	for i, sub := range subs {
		k := end[home[i]]
		end[home[i]]++
		c := &ctxs[k]
		c.SetObserver(jc.Observer)
		c.SetSub(i)
		if jc.Recorder != nil {
			c.SetRecorder(jc.Recorder)
		}
		if jc.Chaos != nil {
			c.SetChaos(jc.Chaos)
		}
		scheds[k] = sched{sub: sub, ctx: c}
	}
	// end[r] is now where region r's subs stop and region r+1's start.
	batches := make([]batch, 0, nb)
	for r, start := 0, 0; r < regions; start, r = end[r], r+1 {
		for lo := start; lo < end[r]; lo += jc.BatchSize {
			hi := min(lo+jc.BatchSize, end[r])
			batches = append(batches, batch{subs: scheds[lo:hi:hi], home: r, live: int64(hi - lo)})
		}
	}
	j.batches = make([]*batch, len(batches))
	for i := range batches {
		j.batches[i] = &batches[i]
	}

	p.mu.Lock()
	if p.closing {
		p.mu.Unlock()
		return nil, ErrPoolClosed
	}
	j.id = p.nextID.Add(1)
	j.traceID = jc.TraceID
	if j.traceID == 0 {
		j.traceID = j.id
	}
	j.label = jc.Label
	if j.label == "" {
		j.label = fmt.Sprintf("job-%d", j.id)
	}
	p.active++
	p.addJobLocked(j)
	p.mu.Unlock()

	if jc.Tracer != nil {
		// The tracer needs the pool-assigned job id, so contexts learn it
		// only now — before any batch is published to a queue.
		for i := range ctxs {
			ctxs[i].SetTracer(jc.Tracer, j.traceID)
		}
	}
	if o := jc.Observer; o != nil {
		o.BeginRun(p.workers)
		o.SetJob(j.label)
		o.RecordSample(j.state.Live(), 0, 0) // t=0 point: everything live
	}
	j.stopSampler = j.startSampler()
	// Atomic handoff: the watchdog's own expire path may reach finishJob
	// (stall conviction) concurrently with this store; a nil load there
	// simply skips the stop, which is correct — an expired chain is dead.
	stopWD := j.startWatchdog()
	j.stopWatchdog.Store(&stopWD)

	if len(j.batches) == 0 {
		p.finishJob(j)
		return j, nil
	}
	if jc.Hold {
		j.held.Store(true)
		return j, nil
	}
	j.startBatches()
	return j, nil
}

// startBatches publishes the job's batches to the run queues — the moment
// execution begins. Split from Submit so held jobs (JobConfig.Hold) can
// start later, aligned with their distributed siblings, via Release.
func (j *Job) startBatches() {
	if j.syncMode {
		j.roundLive = j.state.Live()
		if rec := j.cfg.Recorder; rec != nil {
			// Round 0's execute phase opens before any batch is visible.
			rec.RecordBarrier(0, PhaseExecute)
		}
		j.pushActive()
		return
	}
	now := int64(0)
	if j.instr {
		now = j.nanotime()
	}
	for _, b := range j.batches {
		b.enq = now
		j.rq[b.home].Push(b)
	}
	j.pool.notify()
}

// Release starts a job submitted with JobConfig.Hold. Idempotent; a job
// submitted without Hold needs no Release. A held job MUST eventually be
// released — even after Cancel — or its batches never drain and Wait
// never returns.
func (j *Job) Release() {
	if j.held.CompareAndSwap(true, false) {
		j.startBatches()
	}
}

func (p *Pool) addJobLocked(j *Job) {
	old := *p.jobs.Load()
	next := make([]*Job, 0, len(old)+1)
	next = append(next, old...)
	next = append(next, j)
	p.jobs.Store(&next)
}

func (p *Pool) removeJob(j *Job) {
	p.mu.Lock()
	old := *p.jobs.Load()
	next := make([]*Job, 0, len(old))
	for _, o := range old {
		if o != j {
			next = append(next, o)
		}
	}
	p.jobs.Store(&next)
	p.active--
	if p.active == 0 {
		p.drained.Broadcast()
	}
	p.mu.Unlock()
}

// worker is the long-lived scheduling loop of one pool worker: pop a batch
// from the home region (round-robinning across jobs), fall back to
// stealing from other regions, park when everything is drained.
func (p *Pool) worker(w int) {
	defer p.wg.Done()
	region := p.topo.RegionOf(w)
	regions := p.topo.Regions
	for {
		g := p.gen.Load()
		j, b, stolen := p.tryPop(w, region, regions)
		if b == nil {
			if p.closed.Load() {
				return
			}
			p.waiters.Add(1)
			p.mu.Lock()
			for p.gen.Load() == g && !p.closed.Load() {
				p.cond.Wait()
			}
			p.mu.Unlock()
			p.waiters.Add(-1)
			continue
		}
		if j.instr && b.enq > 0 {
			wait := j.nanotime() - b.enq
			b.enq = 0
			if o := j.cfg.Observer; o != nil {
				o.RecordLatency(w, obs.QueueWaitLatency, wait)
			}
			if tr := j.cfg.Tracer; tr != nil {
				tr.Span(w, trace.KindQueueWait, j.traceID, int64(b.home), tr.Now()-wait, wait)
			}
		}
		if stolen {
			j.cnt.steals.Add(1)
			if o := j.cfg.Observer; o != nil {
				o.Inc(w, obs.Steals)
			}
			if tr := j.cfg.Tracer; tr != nil {
				tr.Instant(w, trace.KindSteal, j.traceID, int64(b.home))
			}
		}
		j.running.Add(1)
		p.processBatch(w, j, b)
		if j.running.Add(-1) == 0 && j.state.Live() == 0 {
			p.finishJob(j)
		}
	}
}

// processBatch runs one batch pass under panic containment: every
// sub-transaction callback (Begin/Execute/Validate), iteration hook,
// Finalize, and the engine's own scheduling code for this pass execute
// inside guard, so a panic becomes a job-level abort (the job fails with
// resilience.ErrJobPanicked and drains) while the worker survives to serve
// the pool's other jobs. The sync barrier's arrival accounting runs outside
// the guarded phase so a panicking batch still arrives — otherwise the
// job's other batches would wait at the barrier forever.
func (p *Pool) processBatch(w int, j *Job, b *batch) {
	if j.syncMode {
		phase := j.phase.Load()
		p.guard(w, j, func() { p.processSyncPhase(w, j, b, phase) })
		var now int64
		if j.instr {
			// Barrier arrival skew: the first arriver of the phase stamps
			// firstArrive; the last arriver (below) reads it back and records
			// how long the fast batches waited for the stragglers.
			now = j.nanotime()
			j.firstArrive.CompareAndSwap(0, now)
		}
		// The barrier size is read before arriving: once this arrival is
		// counted, the last arriver may flip the phase and pushActive may
		// store the next phase's (smaller) size, which a late read could
		// match a second time.
		if size := j.inFlight.Load(); j.arrived.Add(1) == size {
			if j.instr {
				if first := j.firstArrive.Swap(0); first > 0 {
					skew := now - first
					if skew < 0 {
						// The last arriver read its clock before the first
						// arriver won the CAS; call the skew zero.
						skew = 0
					}
					if o := j.cfg.Observer; o != nil {
						o.RecordLatency(w, obs.BarrierWaitLatency, skew)
					}
					if tr := j.cfg.Tracer; tr != nil {
						tr.Span(w, trace.KindBarrier, j.traceID, int64(phase), tr.Now()-skew, skew)
					}
				}
			}
			if !p.guard(w, j, func() { p.syncBarrier(w, j, phase) }) && j.state.Live() > 0 {
				// The barrier panicked before retiring or re-pushing the
				// round's batches. Every user-supplied callback the barrier
				// runs (Recorder.RecordBarrier) fires before any batch is
				// re-published, so this worker still owns the round
				// exclusively and can retire it.
				j.retireAll()
			}
		}
	} else {
		// republished is flipped immediately before the batch is re-pushed:
		// past that point another worker may already own b, so the panic
		// recovery below must not drain it — the next owner's cancelled check
		// will (the guard's fail() already cancelled the job).
		republished := false
		if !p.guard(w, j, func() { p.processQueued(w, j, b, &republished) }) && !republished {
			// The panicked batch never reached its recirculation point;
			// retire its sub-transactions so the drained job can finish.
			j.drainBatch(b)
		}
	}
}

// guard runs fn under recover, converting a panic — from user callbacks or
// the engine's own batch processing — into a job failure carrying the stack
// (resilience.PanicError). Reports whether fn completed without panicking.
func (p *Pool) guard(w int, j *Job, fn func()) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			j.fail(&resilience.PanicError{Value: r, Stack: debug.Stack(), Worker: w})
			j.cnt.panics.Add(1)
			if o := j.cfg.Observer; o != nil {
				o.Inc(w, obs.Panics)
			}
			// Wake parked workers: the job's remaining batches must be
			// popped and drained for the job to finish.
			p.notify()
		}
	}()
	fn()
	return true
}

// tryPop returns a batch from the worker's own region, or — when stealing
// is enabled — from the nearest region with queued work. A chaos injector
// on the pool can veto individual steal attempts (SkipSteal), perturbing
// which worker ends up with cross-region work without ever losing a batch:
// a skipped batch stays queued for its home region or the next thief.
func (p *Pool) tryPop(w, region, regions int) (*Job, *batch, bool) {
	if j, b := p.popRegion(region); b != nil {
		return j, b, false
	}
	if p.stealing {
		if p.chaos != nil && p.chaos.Perturb(chaos.Steal, w) == chaos.SkipSteal {
			return nil, nil, false
		}
		for off := 1; off < regions; off++ {
			if j, b := p.popRegion((region + off) % regions); b != nil {
				return j, b, true
			}
		}
	}
	return nil, nil, false
}

// popRegion round-robins across the active jobs with work queued in region
// r — the fairness rule that interleaves concurrent uber-transactions
// instead of draining them in submission order.
func (p *Pool) popRegion(r int) (*Job, *batch) {
	jobs := *p.jobs.Load()
	n := len(jobs)
	if n == 0 {
		return nil, nil
	}
	start := int(p.rr[r].Add(1) % uint64(n))
	for k := 0; k < n; k++ {
		j := jobs[(start+k)%n]
		if b, ok := j.rq[r].Pop(); ok {
			return j, b
		}
	}
	return nil, nil
}

// injectBatchFault consults the job's chaos injector at the start of a
// batch pass: a Stall simulates an OS-descheduled worker, a Preempt yields
// the processor mid-schedule, and CancelJob cancels the whole job as if the
// client gave up mid-batch. Faults are counted in telemetry so runs can
// report how much perturbation they absorbed.
func (p *Pool) injectBatchFault(w int, j *Job) {
	inj := j.cfg.Chaos
	if inj == nil {
		return
	}
	f := inj.Perturb(chaos.BatchStart, w)
	if f == chaos.None {
		return
	}
	if o := j.cfg.Observer; o != nil {
		o.Inc(w, obs.ChaosFaults)
	}
	if tr := j.cfg.Tracer; tr != nil {
		tr.Instant(w, trace.KindFault, j.traceID, int64(f))
	}
	switch f {
	case chaos.Stall:
		time.Sleep(chaos.StallDuration)
	case chaos.Preempt:
		runtime.Gosched()
	case chaos.CancelJob:
		j.Cancel()
	}
}

// perturbVerdict consults the job's chaos injector right after a
// sub-transaction's Validate verdict: a Stall or Preempt widens the window
// between validation and finalize (the classic TOCTOU gap the isolation
// machinery must tolerate), and ForceRollback discards an otherwise
// committable iteration — the rollback-storm fault. Rollback verdicts pass
// through untouched: there is nothing left to take away.
func (p *Pool) perturbVerdict(w int, j *Job, action itx.Action) itx.Action {
	inj := j.cfg.Chaos
	if inj == nil {
		return action
	}
	f := inj.Perturb(chaos.Validate, w)
	if f == chaos.None {
		return action
	}
	if o := j.cfg.Observer; o != nil {
		o.Inc(w, obs.ChaosFaults)
	}
	if tr := j.cfg.Tracer; tr != nil {
		tr.Instant(w, trace.KindFault, j.traceID, int64(f))
	}
	switch f {
	case chaos.Stall:
		time.Sleep(chaos.StallDuration)
	case chaos.Preempt:
		runtime.Gosched()
	case chaos.ForceRollback:
		if action != itx.Rollback {
			return itx.Rollback
		}
	}
	return action
}

// processQueued handles one batch pass of an asynchronous or
// bounded-staleness job: run one iteration of every live sub-transaction,
// then recirculate the batch through its home queue if work remains.
// *republished is set just before the re-push so the caller's panic recovery
// knows whether it still owns b.
func (p *Pool) processQueued(w int, j *Job, b *batch, republished *bool) {
	p.injectBatchFault(w, j)
	if j.cancelled.Load() {
		j.drainBatch(b)
		return
	}
	o := j.cfg.Observer
	if o != nil {
		o.ObserveQueueDepth(j.rq[b.home].Len())
		o.ObserveLive(j.state.Live())
	}
	t0 := time.Now()
	committed := p.runBatchIteration(w, j, b)
	busy := int64(time.Since(t0))
	j.cnt.busy[w].Add(busy)
	if o != nil {
		o.AddBusy(w, busy)
		o.RecordLatency(w, obs.BatchPassLatency, busy)
	}
	if tr := j.cfg.Tracer; tr != nil {
		tr.Span(w, trace.KindBatch, j.traceID, int64(b.home), tr.Now()-busy, busy)
	}
	if j.cancelled.Load() {
		// Cancelled (or failed) mid-pass: retire the rest of the batch now
		// instead of recirculating it for a drain-only pass.
		j.drainBatch(b)
		return
	}
	if b.live > 0 {
		if inj := j.cfg.Chaos; inj != nil {
			// Recirculation point: delay or yield before the re-push so the
			// batch re-enters its queue at a perturbed position relative to
			// the job's other batches.
			switch inj.Perturb(chaos.Recirculate, w) {
			case chaos.Stall:
				time.Sleep(chaos.StallDuration)
			case chaos.Preempt:
				runtime.Gosched()
			}
		}
		// Always recirculate through the batch's home queue: a stolen
		// batch returns to its own region as soon as this pass ends, so
		// stealing never migrates data affinity permanently.
		if j.instr {
			b.enq = j.nanotime()
		}
		*republished = true
		j.rq[b.home].Push(b)
		if o != nil {
			o.Inc(w, obs.Recirculations)
		}
		p.notify()
		if committed == 0 {
			// Every live sub-transaction rolled back (e.g. SSP-throttled
			// behind a straggler): back off instead of spin-retrying.
			time.Sleep(50 * time.Microsecond)
		}
	}
}

// runBatchIteration runs one iteration of every live sub-transaction in b
// and returns the number of committed iterations.
func (p *Pool) runBatchIteration(w int, j *Job, b *batch) int {
	o := j.cfg.Observer
	committed := 0
	// Chained clock reads: each finalized attempt's end stamp doubles as the
	// next attempt's start, so the whole batch pays one time.Now per attempt
	// — and none at all when telemetry is off.
	var last time.Time
	if o != nil {
		last = time.Now()
	}
	for i := range b.subs {
		s := &b.subs[i]
		if s.converged {
			continue
		}
		if j.cancelled.Load() {
			// Cancelled, failed, or deadline-retired mid-batch: stop
			// executing; the caller drains what remains.
			break
		}
		if j.cfg.IterationHook != nil {
			j.cfg.IterationHook(w)
		}
		s.ctx.SetWorker(w)
		if !s.begun {
			s.sub.Begin(s.ctx)
			s.begun = true
		}
		s.sub.Execute(s.ctx)
		j.beats.Add(1)
		j.cnt.executions.Add(1)
		if o != nil {
			o.Inc(w, obs.Executions)
		}
		if j.cancelled.Load() {
			// The job was convicted or cancelled while this sub executed —
			// possibly while this worker was wedged inside Execute and the
			// watchdog force-finished the job. The uber-transaction may
			// already be aborted (or a retry attempt re-begun), so this
			// attempt must not validate or install anything.
			break
		}
		action := p.perturbVerdict(w, j, s.sub.Validate(s.ctx))
		converged, rolledBack := s.ctx.Finalize(action)
		if o != nil {
			now := time.Now()
			o.RecordLatency(w, obs.AttemptLatency, int64(now.Sub(last)))
			last = now
		}
		if rolledBack {
			j.cnt.rollbacks.Add(1)
		} else {
			j.cnt.commits.Add(1)
			if o != nil {
				o.Inc(w, obs.Commits)
			}
			committed++
		}
		if !converged {
			switch j.state.ShouldForceStop(s.ctx) {
			case itx.ForceIterations:
				converged = true
				j.cnt.forcedStops.Add(1)
				if o != nil {
					o.Inc(w, obs.ForcedStopIters)
				}
			case itx.ForceAttempts:
				converged = true
				j.cnt.forcedStops.Add(1)
				if o != nil {
					o.Inc(w, obs.ForcedStopAttempts)
				}
			case itx.ForceDeadline:
				// The deadline passed mid-batch: retire this sub, fail the
				// job (first failure wins), and let the cancellation drain
				// retire the rest.
				converged = true
				j.cnt.forcedStops.Add(1)
				j.fail(&resilience.DeadlineError{Deadline: j.cfg.Deadline})
				if o != nil {
					o.Inc(w, obs.DeadlineAborts)
				}
			}
		}
		if converged {
			s.converged = true
			b.live--
			j.state.Retire(1)
		}
	}
	return committed
}

// Synchronous phases: every round executes all live sub-transactions with
// writes buffered, then — after a barrier — validates and installs.
// Exported because Recorder.RecordBarrier reports them and internal/check
// replays them when validating the no-read-across-the-barrier contract.
const (
	PhaseExecute int32 = iota
	PhaseInstall
)

// processSyncPhase handles one batch pass of a synchronous job's current
// phase. The barrier is cooperative and per-job: batches carry the job's
// current phase, each processed batch arrives at the barrier (in
// processBatch, outside the panic guard), and the last arriver flips the
// phase (or ends the round) and re-pushes the live batches — no worker
// ever blocks, so concurrent jobs keep flowing through the same pool.
func (p *Pool) processSyncPhase(w int, j *Job, b *batch, phase int32) {
	p.injectBatchFault(w, j)
	o := j.cfg.Observer
	t0 := time.Now()
	if !j.cancelled.Load() {
		if phase == PhaseExecute {
			// Chained clocks, as in runBatchIteration: a synchronous attempt's
			// latency covers its Execute + Validate (install happens in the
			// next phase, after the barrier).
			var last time.Time
			if o != nil {
				last = time.Now()
			}
			for i := range b.subs {
				s := &b.subs[i]
				if s.converged {
					continue
				}
				if j.cancelled.Load() {
					// Cancelled or failed mid-phase: the barrier retires the
					// round; unexecuted verdicts are never consulted.
					break
				}
				if j.cfg.IterationHook != nil {
					j.cfg.IterationHook(w)
				}
				s.ctx.SetWorker(w)
				if !s.begun {
					s.sub.Begin(s.ctx)
					s.begun = true
				}
				s.sub.Execute(s.ctx)
				j.beats.Add(1)
				j.cnt.executions.Add(1)
				if o != nil {
					o.Inc(w, obs.Executions)
				}
				if j.cancelled.Load() {
					// Convicted/cancelled while this sub executed: skip its
					// Validate; the barrier retires the round and the stale
					// verdict is never consulted.
					break
				}
				s.action = p.perturbVerdict(w, j, s.sub.Validate(s.ctx))
				if o != nil {
					now := time.Now()
					o.RecordLatency(w, obs.AttemptLatency, int64(now.Sub(last)))
					last = now
				}
			}
		} else {
			for i := range b.subs {
				s := &b.subs[i]
				if s.converged {
					continue
				}
				if j.cancelled.Load() {
					break
				}
				action := s.action
				if j.cfg.ConvergeTogether && action == itx.Done {
					// Vote, but keep iterating until the whole round agrees.
					j.votes.Add(1)
					action = itx.Commit
				}
				converged, rolledBack := s.ctx.Finalize(action)
				j.beats.Add(1)
				if rolledBack {
					j.cnt.rollbacks.Add(1)
				} else {
					j.cnt.commits.Add(1)
					if o != nil {
						o.Inc(w, obs.Commits)
					}
				}
				if converged {
					s.converged = true
					b.live--
					j.state.Retire(1)
				}
			}
		}
	}
	busy := int64(time.Since(t0))
	j.cnt.busy[w].Add(busy)
	if o != nil {
		o.AddBusy(w, busy)
		o.RecordLatency(w, obs.BatchPassLatency, busy)
	}
	if tr := j.cfg.Tracer; tr != nil {
		tr.Span(w, trace.KindBatch, j.traceID, int64(phase), tr.Now()-busy, busy)
	}
}

// syncBarrier runs on the worker whose batch arrived last. After the
// execute phase it flips to install; after the install phase it settles
// the round: collective convergence, the iteration cap, telemetry, and —
// if work remains — the next round's execute phase.
func (p *Pool) syncBarrier(w int, j *Job, phase int32) {
	if phase == PhaseExecute {
		if j.cancelled.Load() {
			j.retireAll()
			return
		}
		if hook := j.cfg.BarrierHook; hook != nil {
			// Before the recorder and the phase store: no install of the
			// coming phase may start anywhere until the rendezvous releases.
			hook(j.rounds.Load(), PhaseInstall)
		}
		if rec := j.cfg.Recorder; rec != nil {
			// Logged before the phase store and the re-push, so every install
			// of the coming phase lands after this event in the history.
			rec.RecordBarrier(j.rounds.Load(), PhaseInstall)
		}
		j.phase.Store(PhaseInstall)
		j.arrived.Store(0)
		j.pushActive()
		return
	}
	r := j.rounds.Add(1)
	o := j.cfg.Observer
	if j.cancelled.Load() {
		j.retireAll()
	} else {
		unanimous := j.cfg.ConvergeTogether && j.roundLive > 0 &&
			j.votes.Load() == j.roundLive
		if vote := j.cfg.ConvergeVote; vote != nil && j.cfg.ConvergeTogether {
			// Called every round whatever the local tally — the hook is a
			// cross-shard rendezvous and every shard must arrive.
			unanimous = vote(unanimous)
		}
		if unanimous {
			// Unanimous: the global fixpoint is reached; retire everyone.
			j.retireAll()
		} else if j.cfg.MaxIterations > 0 && r >= j.cfg.MaxIterations && j.state.Live() > 0 {
			j.retireForced(w)
		}
	}
	live := j.state.Live()
	if o != nil {
		// One convergence-series point per barrier round.
		o.ObserveLive(live)
		o.RecordSample(live, j.cnt.commits.Load(), j.cnt.rollbacks.Load())
	}
	if live == 0 {
		return // the running-batch countdown finishes the job
	}
	j.votes.Store(0)
	j.roundLive = live
	if hook := j.cfg.BarrierHook; hook != nil {
		hook(r, PhaseExecute)
	}
	if rec := j.cfg.Recorder; rec != nil {
		rec.RecordBarrier(r, PhaseExecute)
	}
	j.phase.Store(PhaseExecute)
	j.arrived.Store(0)
	j.pushActive()
}

// pushActive re-enqueues every batch that still has live sub-transactions
// for the next phase. inFlight is stored before the first push so an
// arriving worker can never observe a stale barrier size.
func (j *Job) pushActive() {
	n := int64(0)
	for _, b := range j.batches {
		if b.live > 0 {
			n++
		}
	}
	j.inFlight.Store(n)
	now := int64(0)
	if j.instr {
		now = j.nanotime()
	}
	for _, b := range j.batches {
		if b.live > 0 {
			b.enq = now
			j.rq[b.home].Push(b)
		}
	}
	j.pool.notify()
}

// retireAll retires every live sub-transaction without touching the stats
// counters (collective convergence, cancellation).
func (j *Job) retireAll() {
	n := int64(0)
	for _, b := range j.batches {
		for i := range b.subs {
			s := &b.subs[i]
			if !s.converged {
				s.converged = true
				b.live--
				n++
			}
		}
	}
	if n > 0 {
		j.state.Retire(n)
	}
}

// retireForced retires every live sub-transaction, charging each to the
// iteration-cap counters.
func (j *Job) retireForced(w int) {
	o := j.cfg.Observer
	n := int64(0)
	for _, b := range j.batches {
		for i := range b.subs {
			s := &b.subs[i]
			if !s.converged {
				s.converged = true
				b.live--
				n++
				j.cnt.forcedStops.Add(1)
				if o != nil {
					o.Inc(w, obs.ForcedStopIters)
				}
			}
		}
	}
	if n > 0 {
		j.state.Retire(n)
	}
}

// drainBatch retires a cancelled job's batch without running it.
func (j *Job) drainBatch(b *batch) {
	n := int64(0)
	for i := range b.subs {
		s := &b.subs[i]
		if !s.converged {
			s.converged = true
			b.live--
			n++
		}
	}
	if n > 0 {
		j.state.Retire(n)
	}
}

// finishJob settles a job exactly once: stop the watchdog and sampler,
// freeze the stats, deregister from the pool, and release waiters. The
// watchdog's stall conviction calls it directly (from the watchdog
// goroutine) when a wedged worker can never reach a scheduling point, so
// everything here must tolerate workers still touching the job's counters
// afterwards — they only ever see the frozen copy through Wait/Stats.
func (p *Pool) finishJob(j *Job) {
	if !j.finished.CompareAndSwap(false, true) {
		return
	}
	if f := j.stopWatchdog.Load(); f != nil {
		(*f)()
	}
	j.stopSampler()
	j.final.Rounds = j.rounds.Load()
	j.final.Elapsed = time.Since(j.start)
	j.cnt.into(&j.final)
	if f := j.failure.Load(); f != nil {
		j.err = f.err
	} else if j.cancelled.Load() {
		j.err = ErrJobCancelled
	}
	if tr := j.cfg.Tracer; tr != nil {
		dur := int64(j.final.Elapsed)
		tr.Span(0, trace.KindJob, j.traceID, 0, tr.Now()-dur, dur)
		if j.err != nil {
			tr.Instant(0, trace.KindAbort, j.traceID, abortReason(j.err))
		}
	}
	p.removeJob(j)
	close(j.done)
}

// abortReason maps a job's terminal error to the trace event's reason code.
func abortReason(err error) int64 {
	switch {
	case errors.Is(err, resilience.ErrJobPanicked):
		return trace.AbortPanic
	case errors.Is(err, resilience.ErrJobStalled):
		return trace.AbortStall
	case errors.Is(err, resilience.ErrJobDeadline):
		return trace.AbortDeadline
	case errors.Is(err, ErrJobCancelled):
		return trace.AbortCancelled
	}
	return trace.AbortError
}

// deadlineForceGrace is how long a deadline-expired job is given to drain
// cooperatively before the watchdog force-finishes it. Healthy workers
// retire queued batches within microseconds of the conviction; the grace
// only matters when a worker is wedged inside user code and can never reach
// a scheduling point — without the fallback, a deadline-only job
// (StallTimeout unset) would hang Wait forever.
const deadlineForceGrace = 100 * time.Millisecond

// startWatchdog arms the job's deadline/stall supervision when configured;
// returns the stop function (a no-op when unconfigured). On deadline expiry
// the job fails and drains cooperatively, with a force-finish fallback after
// deadlineForceGrace in case a wedged worker never drains it; on a stall
// conviction the job is force-finished immediately — the missing heartbeats
// already proved nobody is draining. Either way Wait must not hang on a job
// that stopped making progress; callers that need the stronger "nothing
// still in flight" guarantee follow Wait with Quiesce.
func (j *Job) startWatchdog() func() {
	cfg := resilience.WatchConfig{Deadline: j.cfg.Deadline, StallTimeout: j.cfg.StallTimeout}
	if cfg.Deadline <= 0 && cfg.StallTimeout <= 0 {
		return func() {}
	}
	p := j.pool
	return resilience.Watch(cfg, j.beats.Load, func(err error) {
		if errors.Is(err, resilience.ErrJobDeadline) {
			// Arm the cooperative half: per-finalize ForceDeadline checks
			// retire an active-but-nonconvergent job mid-batch without the
			// hot path ever reading the clock.
			j.state.ExpireDeadline()
		}
		j.fail(err)
		if o := j.cfg.Observer; o != nil {
			if errors.Is(err, resilience.ErrJobStalled) {
				o.Inc(0, obs.StallAborts)
			} else {
				o.Inc(0, obs.DeadlineAborts)
			}
		}
		p.notify()
		if errors.Is(err, resilience.ErrJobStalled) {
			p.finishJob(j)
		} else {
			// finishJob is CAS-guarded, so the fallback is a no-op on a job
			// the drain already finished.
			time.AfterFunc(deadlineForceGrace, func() { p.finishJob(j) })
		}
	})
}

// Job is one uber-transaction's execution in flight on a Pool: its
// batches, isolation options, convergence state, and counters. Concurrent
// jobs on the same pool are fully independent — each has its own queues,
// barrier, caps, and observer.
type Job struct {
	id      uint64
	traceID uint64 // id stamped on trace events: cfg.TraceID, or id
	label   string
	pool    *Pool
	opts    isolation.Options
	cfg     JobConfig

	state   *itx.JobState
	rq      []*queue.Queue[*batch] // per-region queues holding this job's batches
	batches []*batch
	cnt     *counters
	start   time.Time
	total   int64 // sub-transactions submitted
	instr   bool  // Observer or Tracer attached: stamp queue/barrier clocks

	// firstArrive is the nanotime stamp of the current sync round-phase's
	// first barrier arrival (0 between phases); the last arriver swaps it
	// out to compute the round's arrival skew.
	firstArrive atomic.Int64

	// Synchronous-barrier state; see processSync.
	syncMode  bool
	phase     atomic.Int32
	inFlight  atomic.Int64 // batches pushed for the current phase
	arrived   atomic.Int64 // batches that completed the current phase
	votes     atomic.Int64 // ConvergeTogether Done votes this round
	roundLive int64        // live subs at round start; written only at barriers
	rounds    atomic.Uint64

	running   atomic.Int64 // batches being processed right now
	cancelled atomic.Bool
	finished  atomic.Bool
	held      atomic.Bool // submitted with Hold, not yet Released

	// Supervision state: beats is the iteration heartbeat the watchdog
	// samples; failure holds the first terminal error (panic, stall,
	// deadline) and wins over plain cancellation in Wait.
	beats        atomic.Uint64
	failure      atomic.Pointer[jobFailure]
	stopWatchdog atomic.Pointer[func()]

	stopSampler func()
	final       Stats
	err         error
	done        chan struct{}
}

// jobFailure boxes a job's terminal error for atomic first-writer-wins
// publication.
type jobFailure struct{ err error }

// fail records the job's terminal error — the first failure wins — and
// cancels the job so queued batches drain instead of executing. Wait then
// reports the failure instead of ErrJobCancelled.
func (j *Job) fail(err error) {
	if j.failure.CompareAndSwap(nil, &jobFailure{err: err}) {
		j.cancelled.Store(true)
	}
}

// nanotime returns nanoseconds since the job started — the monotonic stamp
// used for queue-wait and barrier-skew measurement.
func (j *Job) nanotime() int64 { return int64(time.Since(j.start)) }

// Beats returns the job's iteration heartbeat count: one tick per
// sub-transaction execution (and per synchronous finalize). The watchdog
// samples it; tests use it to assert progress.
func (j *Job) Beats() uint64 { return j.beats.Load() }

// Live returns the number of not-yet-retired sub-transactions.
func (j *Job) Live() int64 { return j.state.Live() }

// Total returns the number of sub-transactions the job was submitted with.
func (j *Job) Total() int64 { return j.total }

// Started returns when the job was submitted.
func (j *Job) Started() time.Time { return j.start }

// Deadline returns the job's wall-clock budget (0 = unbounded).
func (j *Job) Deadline() time.Duration { return j.cfg.Deadline }

// Finished reports whether the job has settled (Wait would not block).
func (j *Job) Finished() bool { return j.finished.Load() }

// Err returns the terminal error of a finished job (nil while running or
// after a clean convergence).
func (j *Job) Err() error {
	select {
	case <-j.done:
		return j.err
	default:
		return nil
	}
}

// Label returns the telemetry label (JobConfig.Label or "job-<id>").
func (j *Job) Label() string { return j.label }

// Done returns a channel closed when the job has finished.
func (j *Job) Done() <-chan struct{} { return j.done }

// Wait blocks until the job finished and returns its final stats. The
// error is ErrJobCancelled when the job was cancelled.
//
// After a forced retirement (a stall conviction, or a deadline whose
// cooperative drain timed out) a worker wedged inside user code may still be
// executing when Wait returns; its attempt can no longer validate or
// install anything, but callers about to tear down or reuse the job's
// tables (abort, resubmit) must first Quiesce.
func (j *Job) Wait() (Stats, error) {
	<-j.done
	return j.final, j.err
}

// Quiesce blocks until no pool worker is processing this job's batches, or
// until timeout elapses (timeout <= 0 waits forever); it reports whether the
// job quiesced. After a natural finish it returns immediately; after a
// forced retirement it returns once every in-flight worker has acknowledged
// the cancellation — the precondition for safely aborting the
// uber-transaction or resubmitting the same sub-transactions, which share
// state with any still-wedged attempt.
func (j *Job) Quiesce(timeout time.Duration) bool {
	if j.running.Load() == 0 {
		return true
	}
	deadline := time.Now().Add(timeout)
	for {
		time.Sleep(50 * time.Microsecond)
		if j.running.Load() == 0 {
			return true
		}
		if timeout > 0 && !time.Now().Before(deadline) {
			return false
		}
	}
}

// Cancel asks the job to stop: queued batches are drained instead of
// executed, and a synchronous job stops at its next barrier. Wait then
// returns ErrJobCancelled. Cancelling a finished job is a no-op.
func (j *Job) Cancel() {
	if j.finished.Load() {
		return
	}
	j.cancelled.Store(true)
}

// Stats returns the final stats of a finished job, or a live snapshot of a
// running one.
func (j *Job) Stats() Stats {
	select {
	case <-j.done:
		return j.final
	default:
	}
	var s Stats
	s.Rounds = j.rounds.Load()
	s.Elapsed = time.Since(j.start)
	j.cnt.into(&s)
	return s
}

// startSampler launches the periodic convergence sampler of the queued
// schedulers when telemetry is enabled; the synchronous scheduler samples
// per barrier round instead. Returns the stop function.
func (j *Job) startSampler() func() {
	o := j.cfg.Observer
	if o == nil || j.syncMode {
		return func() {}
	}
	record := func() {
		o.RecordSample(j.state.Live(), j.cnt.commits.Load(), j.cnt.rollbacks.Load())
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(sampleInterval)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				record()
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
		record() // final point: job complete
	}
}
