package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"db4ml/internal/chaos"
	"db4ml/internal/obs"
	"db4ml/internal/trace"
)

// Options configures a Log.
type Options struct {
	// Dir is the log directory; created if absent.
	Dir string
	// Policy is the fsync policy (default SyncAlways).
	Policy SyncPolicy
	// Interval is the SyncInterval fsync period (default 2ms).
	Interval time.Duration
	// SegmentBytes is the segment roll threshold (default 8 MiB).
	SegmentBytes int64
	// Observer, when non-nil, receives wal_appends/wal_bytes/wal_fsyncs
	// counters, wal_append/wal_fsync latency samples, and the
	// wal_batch_records group-commit size distribution (all charged to
	// worker 0 — WAL work is log-level, not worker-level).
	Observer *obs.Observer
	// Tracer, when non-nil, receives a KindWAL span per group-commit batch
	// flush (Arg = batch size, Job = the batch's first traced record's
	// correlation id) and a KindFsync span per fsync.
	Tracer *trace.Tracer
	// Killer, when non-nil, arms the mid-append / after-append kill-points
	// inside the appender.
	Killer *chaos.Killer
}

type appendReq struct {
	rec     *Record
	err     error
	done    chan struct{}
	settled bool // appender-only: done already closed
}

// Log is the append side of the WAL: a single appender goroutine drains a
// request channel in batches, writes one buffer per batch, fsyncs per
// policy, and acknowledges each request. Append is safe for concurrent use.
type Log struct {
	opts    Options
	nextLSN atomic.Uint64

	mu      sync.RWMutex // guards closed against in-flight Append senders
	closed  bool
	senders sync.WaitGroup

	ch     chan *appendReq
	doneCh chan struct{} // appender exited

	frozen atomic.Bool  // simulated crash: nothing more reaches disk
	broken atomic.Value // sticky I/O error (error)

	// recovered holds the records Open's scan decoded until Recovered
	// hands them over.
	recovered []*Record

	// Appender-owned state.
	f        *os.File
	segBytes int64
	lastSync time.Time
}

// Open opens (or creates) the log in o.Dir for appending: it scans existing
// segments to find the next LSN, truncates a torn tail so the last segment
// is append-clean, and starts the group-commit appender. The scan decodes
// every valid record; Recovered hands them to the caller, so recovery
// decodes the log once. Call Close to flush and stop the appender.
func Open(o Options) (*Log, error) {
	if o.Dir == "" {
		return nil, fmt.Errorf("wal: empty directory")
	}
	if err := os.MkdirAll(o.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = defaultSegmentBytes
	}
	if o.Interval <= 0 {
		o.Interval = defaultSyncInterval
	}

	scan, err := scanDir(o.Dir)
	if err != nil {
		return nil, err
	}
	l := &Log{
		opts:      o,
		ch:        make(chan *appendReq, 256),
		doneCh:    make(chan struct{}),
		recovered: scan.recs,
	}
	l.nextLSN.Store(scan.nextLSN)

	// Drop segments that start beyond the first tear — they hold only
	// unreachable post-tear history (e.g. a roll raced the crash) and their
	// header LSNs no longer line up with what the appender will write next.
	live := scan.segs[:0]
	for _, seg := range scan.segs {
		if seg.firstLSN > scan.nextLSN {
			if err := os.Remove(filepath.Join(o.Dir, seg.name)); err != nil {
				return nil, fmt.Errorf("wal: %w", err)
			}
			continue
		}
		live = append(live, seg)
	}
	if len(live) == 0 {
		if err := l.newSegment(scan.nextLSN); err != nil {
			return nil, err
		}
	} else {
		// Truncate every surviving segment to its valid bytes (a no-op for
		// clean ones) so no torn garbage outlives recovery anywhere.
		for _, seg := range live[:len(live)-1] {
			if err := os.Truncate(filepath.Join(o.Dir, seg.name), seg.goodBytes); err != nil {
				return nil, fmt.Errorf("wal: %w", err)
			}
		}
		last := live[len(live)-1]
		// Truncate the torn tail (a no-op when the segment ends cleanly) and
		// position for append.
		f, err := os.OpenFile(filepath.Join(o.Dir, last.name), os.O_RDWR, 0o644)
		if err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
		if err := f.Truncate(last.goodBytes); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: truncate torn tail: %w", err)
		}
		if _, err := f.Seek(last.goodBytes, 0); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: %w", err)
		}
		l.f = f
		l.segBytes = last.goodBytes
	}
	go l.appender()
	return l, nil
}

// newSegment creates and opens the segment starting at firstLSN.
// Appender-side (or pre-appender) only.
func (l *Log) newSegment(firstLSN uint64) error {
	if l.f != nil {
		if l.opts.Policy != SyncNone {
			l.syncFile()
		}
		l.f.Close()
	}
	path := filepath.Join(l.opts.Dir, segName(firstLSN))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if _, err := f.Write(segHeader(firstLSN)); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	syncDir(l.opts.Dir)
	l.f = f
	l.segBytes = segHeaderLen
	return nil
}

// roll starts the next segment unless the active one holds no record: the
// next segment would begin at the same LSN, and so under the same name.
// Appender-side only.
func (l *Log) roll() error {
	if l.segBytes <= segHeaderLen {
		return nil
	}
	return l.newSegment(l.nextLSN.Load())
}

func (l *Log) syncFile() {
	start := time.Now()
	at := l.opts.Tracer.Now()
	if err := l.f.Sync(); err != nil {
		l.broken.Store(err)
		return
	}
	l.lastSync = time.Now()
	if o := l.opts.Observer; o != nil {
		o.Inc(0, obs.WALFsyncs)
		o.RecordLatency(0, obs.WALFsyncLatency, l.lastSync.Sub(start).Nanoseconds())
	}
	l.opts.Tracer.Span(0, trace.KindFsync, 0, 0, at, l.opts.Tracer.Now()-at)
}

func (l *Log) err() error {
	if l.frozen.Load() {
		return chaos.ErrCrashed
	}
	if e, _ := l.broken.Load().(error); e != nil {
		return e
	}
	return nil
}

// Recovered returns the records Open found in the log — exactly what
// Records would have read from the directory before Open truncated its
// torn tail — and drops the log's reference to them, so they live only as
// long as the caller keeps them. Every call after the first returns nil.
// Not safe for concurrent use; recovery calls it once, before appending.
func (l *Log) Recovered() []*Record {
	recs := l.recovered
	l.recovered = nil
	return recs
}

// NextLSN returns the LSN the next appended record will receive. The fuzzy
// checkpointer captures it (after rolling the segment, before pinning its
// snapshot) as the replay lower bound the checkpoint covers.
func (l *Log) NextLSN() uint64 { return l.nextLSN.Load() }

// Append assigns the record an LSN, writes it through the group-commit
// batcher, and returns once the append is acknowledged under the sync
// policy. The record's LSN field is set on success.
func (l *Log) Append(rec *Record) error {
	return l.submit(&appendReq{rec: rec, done: make(chan struct{})})
}

// Roll asks the appender to start a new segment, making the previous one
// eligible for TruncateBelow. It returns once the roll happened. Rolling a
// segment that holds no record yet is a no-op.
func (l *Log) Roll() error {
	return l.submit(&appendReq{done: make(chan struct{})}) // nil rec = roll
}

func (l *Log) submit(req *appendReq) error {
	if err := l.err(); err != nil {
		return err
	}
	l.mu.RLock()
	if l.closed {
		l.mu.RUnlock()
		return ErrClosed
	}
	l.senders.Add(1)
	l.mu.RUnlock()
	start := time.Now()
	l.ch <- req
	l.senders.Done()
	<-req.done
	if req.err == nil && req.rec != nil && l.opts.Observer != nil {
		l.opts.Observer.RecordLatency(0, obs.WALAppendLatency, time.Since(start).Nanoseconds())
	}
	return req.err
}

// Freeze simulates the process dying: every in-flight and future append
// fails with chaos.ErrCrashed and nothing more reaches disk. The durable
// state stays exactly as it was at the freeze instant.
func (l *Log) Freeze() { l.frozen.Store(true) }

// Close drains pending appends, flushes, fsyncs (broken/frozen logs skip
// the flush — their durable state is already final), and stops the
// appender. Further Appends return ErrClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.mu.Unlock()
	l.senders.Wait()
	close(l.ch)
	<-l.doneCh
	return l.err()
}

// appender is the single goroutine that owns the segment file.
func (l *Log) appender() {
	defer close(l.doneCh)
	ticker := time.NewTicker(l.opts.Interval)
	defer ticker.Stop()
	for {
		select {
		case req, ok := <-l.ch:
			if !ok {
				if !l.frozen.Load() && l.err() == nil && l.f != nil {
					l.syncFile()
				}
				if l.f != nil {
					l.f.Close()
					l.f = nil
				}
				return
			}
			batch := []*appendReq{req}
		drain:
			for len(batch) < 256 {
				select {
				case r, ok := <-l.ch:
					if !ok {
						// Channel closed mid-drain: process what we have;
						// the next loop iteration handles shutdown.
						break drain
					}
					batch = append(batch, r)
				default:
					break drain
				}
			}
			l.processBatch(batch)
		case <-ticker.C:
			if l.opts.Policy == SyncInterval && l.err() == nil && time.Since(l.lastSync) >= l.opts.Interval {
				l.syncFile()
			}
		}
	}
}

// processBatch writes a batch of records as one buffered write, applies the
// sync policy, and acknowledges every request. Kill-points fire here, inside
// the appender, so a "crash" tears the log at a byte-exact, single-threaded
// point.
func (l *Log) processBatch(batch []*appendReq) {
	batchAt := l.opts.Tracer.Now()
	settleOne := func(r *appendReq, err error) {
		r.settled = true
		r.err = err
		close(r.done)
	}
	// settleRest fails every not-yet-settled request; no error path may
	// leave a request open or its sender blocks forever.
	settleRest := func(err error) {
		for _, r := range batch {
			if !r.settled {
				settleOne(r, err)
			}
		}
	}
	if err := l.err(); err != nil {
		settleRest(err)
		return
	}
	if l.segBytes >= l.opts.SegmentBytes {
		if err := l.roll(); err != nil {
			l.broken.Store(err)
			settleRest(err)
			return
		}
	}

	var buf []byte
	flush := func() error {
		if len(buf) == 0 {
			return nil
		}
		err := l.write(buf)
		buf = nil
		return err
	}
	for _, r := range batch {
		if r.rec == nil { // roll request
			if err := flush(); err != nil {
				settleRest(err)
				return
			}
			if err := l.roll(); err != nil {
				l.broken.Store(err)
				settleRest(err)
				return
			}
			settleOne(r, nil)
			continue
		}
		// Encode before consuming the LSN: a rejected record must not burn
		// one, or replay would see a gap and truncate everything after it.
		r.rec.LSN = l.nextLSN.Load()
		payload, err := encodePayload(r.rec)
		if err != nil {
			settleOne(r, err)
			continue
		}
		l.nextLSN.Add(1)
		frame := encodeFrame(payload)

		if l.opts.Killer.At(chaos.CrashMidWALAppend) {
			// Die halfway through this frame: flush everything before it
			// plus a torn prefix, then freeze. Earlier records in the batch
			// are durable-but-unacknowledged; this one is torn.
			buf = append(buf, frame[:len(frame)/2]...)
			_ = flush()
			l.Freeze()
			settleRest(chaos.ErrCrashed)
			return
		}
		buf = append(buf, frame...)
		if l.opts.Killer.At(chaos.CrashAfterWALAppend) {
			// Die after this frame is durable but before anyone is told:
			// write and fsync everything up to and including it, then
			// freeze. Every request in the batch dies unacknowledged.
			if flush() == nil {
				l.syncFile()
			}
			l.Freeze()
			settleRest(chaos.ErrCrashed)
			return
		}
	}
	if err := flush(); err != nil {
		settleRest(err)
		return
	}
	switch l.opts.Policy {
	case SyncAlways:
		l.syncFile()
	case SyncInterval:
		if time.Since(l.lastSync) >= l.opts.Interval {
			l.syncFile()
		}
	}
	if err := l.err(); err != nil {
		settleRest(err)
		return
	}
	n := 0
	var uid uint64 // correlation id for the batch span: first traced record wins
	for _, r := range batch {
		if !r.settled && r.rec != nil {
			n++
			if uid == 0 {
				uid = r.rec.Trace
			}
		}
	}
	settleRest(nil)
	if n > 0 {
		if o := l.opts.Observer; o != nil {
			o.Add(0, obs.WALAppends, uint64(n))
			// Batch-size distribution: the recorded unit is records per
			// flushed batch, through the same log₂ buckets as the latencies.
			o.RecordLatency(0, obs.WALBatchRecords, int64(n))
		}
		l.opts.Tracer.Span(0, trace.KindWAL, uid, int64(n), batchAt, l.opts.Tracer.Now()-batchAt)
	}
}

func (l *Log) write(b []byte) error {
	n, err := l.f.Write(b)
	if o := l.opts.Observer; o != nil && n > 0 {
		o.Add(0, obs.WALBytes, uint64(n))
	}
	if err != nil {
		l.broken.Store(err)
		return err
	}
	l.segBytes += int64(len(b))
	return nil
}

// TruncateBelow deletes whole segments every record of which has LSN < lsn:
// a segment goes iff its successor exists and starts at or below lsn. The
// active segment has no successor and is never deleted. Safe to call from
// the checkpointer while appends are in flight.
func (l *Log) TruncateBelow(lsn uint64) (removed int, err error) {
	scan, err := listSegments(l.opts.Dir)
	if err != nil {
		return 0, err
	}
	for i := 0; i+1 < len(scan); i++ {
		if scan[i+1].firstLSN <= lsn {
			if rmErr := os.Remove(filepath.Join(l.opts.Dir, scan[i].name)); rmErr != nil {
				return removed, fmt.Errorf("wal: %w", rmErr)
			}
			removed++
		}
	}
	if removed > 0 {
		syncDir(l.opts.Dir)
	}
	return removed, nil
}

// segInfo is one on-disk segment, by header LSN order.
type segInfo struct {
	name     string
	firstLSN uint64
}

// listSegments returns the directory's parseable segments in LSN order.
// Files without a valid header are ignored (never deleted, never read).
func listSegments(dir string) ([]segInfo, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var segs []segInfo
	for _, ent := range ents {
		if ent.IsDir() || filepath.Ext(ent.Name()) != ".seg" {
			continue
		}
		hdr := make([]byte, segHeaderLen)
		f, err := os.Open(filepath.Join(dir, ent.Name()))
		if err != nil {
			continue
		}
		n, _ := f.Read(hdr)
		f.Close()
		if n < segHeaderLen {
			continue
		}
		first, err := parseSegHeader(hdr)
		if err != nil {
			continue
		}
		segs = append(segs, segInfo{name: ent.Name(), firstLSN: first})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].firstLSN < segs[j].firstLSN })
	return segs, nil
}
