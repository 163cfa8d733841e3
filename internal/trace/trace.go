// Package trace is the engine's low-overhead span tracer: a fixed-size,
// per-worker-sharded ring buffer of timing events recording what the
// kernel's runtime actually did — uber-transaction lifecycles, batch
// passes, sync-barrier waits, queue residence, steals, retries, aborts,
// and chaos faults. Where internal/obs answers "how much" (counters,
// histograms), trace answers "when, in what order, on which worker".
//
// Design constraints, mirroring internal/obs:
//
//   - Disabled must be free. A nil *Tracer is the off state; every method
//     is nil-receiver safe, so call sites need no guard at all and the
//     compiled hot path is a single pointer test.
//   - Enabled must be cheap and bounded. Each worker records into its own
//     fixed-size ring (one short critical section per event, contended
//     only by a concurrent snapshot); when the ring is full the oldest
//     events are overwritten, so arbitrarily long runs keep the most
//     recent window instead of growing without bound.
//   - Exportable. Events render as Chrome trace_event JSON
//     (WriteChromeTrace), so a run's trace opens directly in
//     about:tracing or Perfetto: one "process" row group per job, one
//     "thread" row per worker.
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Kind identifies what an event describes.
type Kind uint8

const (
	// KindJob spans one uber-transaction from submission to finish.
	KindJob Kind = iota
	// KindBatch spans one batch scheduling pass on one worker.
	KindBatch
	// KindBarrier spans a synchronous round's barrier wait: from the first
	// batch's arrival to the last (the round's arrival skew).
	KindBarrier
	// KindQueueWait spans a batch's residence in its region queue, from
	// push to pop.
	KindQueueWait
	// KindSteal marks a batch popped from a foreign region's queue.
	KindSteal
	// KindRetry marks a whole-job resubmission by the facade's abort-retry
	// loop; Arg is the attempt number just finished.
	KindRetry
	// KindAbort marks a job failure or cancellation; Arg is a reason code
	// (the caller's choice — the facade uses AbortPanic and friends).
	KindAbort
	// KindFault marks an injected chaos fault the run absorbed; Arg is the
	// chaos.Fault code.
	KindFault
	// KindCommit marks an uber-transaction's atomic publish.
	KindCommit
	// KindGC marks one version-GC reclaimer pass; Arg is the number of
	// versions pruned.
	KindGC
	// KindPlan spans one relational plan execution (internal/plan), from
	// Execute to cursor close; Arg is the number of result rows emitted.
	KindPlan
	// KindPlanOp spans one operator's Open→Close lifetime within a plan
	// execution; Arg is the operator's rows-out count.
	KindPlanOp
	// KindWAL marks one group-commit batch written to the write-ahead log;
	// Arg is the number of records in the batch.
	KindWAL
	// KindCheckpoint marks one completed fuzzy checkpoint pass; Arg is the
	// number of table sections written.
	KindCheckpoint
	// KindUberBegin spans a distributed uber-transaction's begin+attach
	// phase across every participating shard; Job is the coordinator's
	// uber-transaction correlation id.
	KindUberBegin
	// KindPrepare spans one shard's 2PC prepare; Arg is the shard index.
	KindPrepare
	// KindCommitWindow spans the distributed commit window of one
	// uber-transaction: first prepare through last per-shard commit. Arg is
	// the commit timestamp.
	KindCommitWindow
	// KindRendezvous spans a cross-shard rendezvous wait (global barrier
	// arrival or convergence vote); Arg is the shard index.
	KindRendezvous
	// KindFsync spans one WAL fsync.
	KindFsync
	// KindReplay spans one recovery replay step (one committed
	// uber-transaction re-applied from the log); Arg is the record's LSN.
	KindReplay
	// KindCkptSection spans one checkpoint table-section write; Arg is 1
	// when the section was reused from the unchanged-section cache.
	KindCkptSection

	numKinds
)

// Abort reason codes carried in a KindAbort event's Arg.
const (
	AbortCancelled int64 = iota
	AbortPanic
	AbortStall
	AbortDeadline
	AbortError
)

var kindNames = [numKinds]string{
	"job", "batch", "barrier", "queue-wait", "steal",
	"retry", "abort", "fault", "commit", "gc",
	"plan", "plan-op", "wal", "checkpoint",
	"uber-begin", "prepare", "commit-window", "rendezvous",
	"fsync", "replay", "ckpt-section",
}

func (k Kind) String() string {
	if k < numKinds {
		return kindNames[k]
	}
	return "kind(?)"
}

// Event is one recorded span or instant. Start is nanoseconds since the
// tracer's epoch; Dur is 0 for instant events. Seq orders events recorded
// at the same nanosecond (coarse clocks) and across shards.
type Event struct {
	Start  int64
	Dur    int64
	Seq    uint64
	Job    uint64
	Arg    int64
	Worker int32
	Kind   Kind
}

// shard is one worker's ring. The mutex serializes the owning worker's
// appends with concurrent snapshots (Events/WriteChromeTrace); workers
// never touch each other's shards, so the lock is uncontended on the hot
// path except while a snapshot is being taken.
type shard struct {
	mu   sync.Mutex
	pos  uint64 // next slot; pos>=len(ring) means the ring has wrapped
	ring []Event
	_    [64]byte // keep adjacent shards' hot words off one cache line
}

// DefaultCapacity is the per-worker ring size used when New is given a
// non-positive capacity: 8192 events ≈ 448 KiB/worker, a few seconds of
// batch-granularity history on a busy worker.
const DefaultCapacity = 8192

// Tracer records events into per-worker rings. A nil *Tracer is the
// disabled state: every method no-ops. Construct with New.
type Tracer struct {
	epoch  time.Time
	shards []shard
	seq    atomic.Uint64
}

// New returns a tracer with one ring per worker (at least one) of the
// given per-worker capacity (DefaultCapacity when <= 0). Worker indexes
// out of range fold into the existing shards, so a tracer sized for a
// pool is safe to share with job-level callers that pass worker 0.
func New(workers, capacity int) *Tracer {
	if workers < 1 {
		workers = 1
	}
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	t := &Tracer{epoch: time.Now(), shards: make([]shard, workers)}
	for i := range t.shards {
		t.shards[i].ring = make([]Event, capacity)
	}
	return t
}

// Enabled reports whether the tracer records anything (i.e. is non-nil).
func (t *Tracer) Enabled() bool { return t != nil }

// Now returns the current time in nanoseconds since the tracer's epoch —
// the Start argument for Span. Monotonic (time.Since). Returns 0 on a nil
// tracer.
func (t *Tracer) Now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

func (t *Tracer) shard(worker int) *shard {
	if worker < 0 || worker >= len(t.shards) {
		worker = 0
	}
	return &t.shards[worker]
}

// Span records a duration event on worker's ring: it began at start
// (nanoseconds since epoch, from Now) and lasted dur nanoseconds.
func (t *Tracer) Span(worker int, k Kind, job uint64, arg int64, start, dur int64) {
	if t == nil {
		return
	}
	t.record(worker, Event{
		Kind: k, Worker: int32(worker), Job: job, Arg: arg,
		Start: start, Dur: dur,
	})
}

// Instant records a zero-duration event on worker's ring at the current
// time.
func (t *Tracer) Instant(worker int, k Kind, job uint64, arg int64) {
	if t == nil {
		return
	}
	t.record(worker, Event{
		Kind: k, Worker: int32(worker), Job: job, Arg: arg,
		Start: t.Now(),
	})
}

func (t *Tracer) record(worker int, e Event) {
	e.Seq = t.seq.Add(1)
	sh := t.shard(worker)
	sh.mu.Lock()
	sh.ring[sh.pos%uint64(len(sh.ring))] = e
	sh.pos++
	sh.mu.Unlock()
}

// Len returns the number of events currently retained across all shards.
// 0 on a nil tracer.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	n := 0
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		p := sh.pos
		if p > uint64(len(sh.ring)) {
			p = uint64(len(sh.ring))
		}
		n += int(p)
		sh.mu.Unlock()
	}
	return n
}

// Events snapshots the retained events of every shard, ordered by
// (Start, Seq). Safe to call while workers keep recording; each shard is
// copied under its lock, so no torn events are ever observed. Returns nil
// on a nil tracer.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	var out []Event
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		n := sh.pos
		if n > uint64(len(sh.ring)) {
			n = uint64(len(sh.ring))
		}
		out = append(out, sh.ring[:n]...)
		sh.mu.Unlock()
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Start != out[b].Start {
			return out[a].Start < out[b].Start
		}
		return out[a].Seq < out[b].Seq
	})
	return out
}

// chromeEvent is one trace_event entry. Ts/Dur are microseconds (the
// format's unit); Pid groups rows by job, Tid by worker.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Pid  uint64         `json:"pid"`
	Tid  int32          `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// Source is one named ring feeding a merged Chrome-trace export: a shard's
// kernel tracer, a coordinator tracer, a single kernel. The Name becomes
// the process row's name in the rendered trace.
type Source struct {
	Name   string
	Tracer *Tracer
}

// WriteChromeTrace renders this tracer's retained events as Chrome
// trace_event JSON — the single-source form of WriteChromeTraceMulti, so
// the one-kernel path and the cross-shard merge share one exporter. A nil
// tracer writes an empty trace.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	return WriteChromeTraceMulti(w, []Source{{Name: "kernel", Tracer: t}})
}

// WriteChromeTraceMulti merges the retained events of every source into
// one Chrome trace_event JSON document (the object form:
// {"traceEvents": [...]}), loadable directly in about:tracing and
// Perfetto. Each source renders as one named process (pid = source index)
// with one thread row per worker; spans become complete ("X") events and
// instants thread-scoped instant ("i") events. Every event carries its
// causal correlation id (the coordinator-assigned uber-transaction or
// query id) in args.id, so spans of the same uber-transaction share an id
// across shard processes. Sources constructed at different times are
// re-based onto the earliest source epoch, so cross-shard timestamps are
// directly comparable. Nil tracers contribute nothing.
func WriteChromeTraceMulti(w io.Writer, sources []Source) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`); err != nil {
		return err
	}
	enc := json.NewEncoder(bw)
	enc.SetEscapeHTML(false)
	first := true
	emit := func(ce chromeEvent) error {
		if !first {
			if err := bw.WriteByte(','); err != nil {
				return err
			}
		}
		first = false
		// Encoder writes a trailing newline; acceptable inside the array.
		return enc.Encode(ce)
	}
	// Common epoch: the earliest live source's. Events from later-built
	// tracers shift forward by the epoch delta.
	var base time.Time
	for _, s := range sources {
		if s.Tracer == nil {
			continue
		}
		if base.IsZero() || s.Tracer.epoch.Before(base) {
			base = s.Tracer.epoch
		}
	}
	for pid, s := range sources {
		if s.Tracer == nil {
			continue
		}
		events := s.Tracer.Events()
		if len(events) == 0 {
			continue
		}
		shift := int64(s.Tracer.epoch.Sub(base))
		name := s.Name
		if name == "" {
			name = fmt.Sprintf("source %d", pid)
		}
		if err := emit(chromeEvent{
			Name: "process_name", Ph: "M", Pid: uint64(pid),
			Args: map[string]any{"name": name},
		}); err != nil {
			return err
		}
		seenThread := make(map[int32]bool)
		for _, e := range events {
			if !seenThread[e.Worker] {
				seenThread[e.Worker] = true
				if err := emit(chromeEvent{
					Name: "thread_name", Ph: "M", Pid: uint64(pid), Tid: e.Worker,
					Args: map[string]any{"name": fmt.Sprintf("worker %d", e.Worker)},
				}); err != nil {
					return err
				}
			}
			ce := chromeEvent{
				Name: e.Kind.String(),
				Cat:  "db4ml",
				Ts:   float64(e.Start+shift) / 1e3,
				Pid:  uint64(pid),
				Tid:  e.Worker,
			}
			if e.Dur > 0 || e.Kind == KindJob || e.Kind == KindBatch ||
				e.Kind == KindBarrier || e.Kind == KindQueueWait {
				ce.Ph = "X"
				d := float64(e.Dur) / 1e3
				ce.Dur = &d
			} else {
				ce.Ph = "i"
				ce.S = "t"
			}
			ce.Args = map[string]any{"id": e.Job}
			if e.Arg != 0 || e.Kind == KindAbort || e.Kind == KindFault || e.Kind == KindRetry {
				ce.Args["arg"] = e.Arg
			}
			if err := emit(ce); err != nil {
				return err
			}
		}
	}
	if _, err := bw.WriteString("]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}
