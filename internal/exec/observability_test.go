package exec

import (
	"bytes"
	"encoding/json"
	"testing"

	"db4ml/internal/isolation"
	"db4ml/internal/obs"
	"db4ml/internal/trace"
)

// TestQueuedRunPopulatesLatenciesAndTrace: an asynchronous run with an
// observer and a tracer attached must fill the attempt / batch-pass /
// queue-wait histograms consistently with its Stats, and the trace ring must
// hold the job's span plus batch and queue-wait spans.
func TestQueuedRunPopulatesLatenciesAndTrace(t *testing.T) {
	const n, target = 120, 6
	subs, _ := newCounterSubs(n, target)
	o := obs.New()
	tr := trace.New(4, 4096)
	stats := runJob(t, Config{Workers: 4}, isolation.Options{Level: isolation.Asynchronous},
		JobConfig{BatchSize: 8, Observer: o, Tracer: tr}, subs)

	lat := o.Snapshot().Latencies
	if lat.Attempt.Count != stats.Executions {
		t.Fatalf("attempt samples = %d, want one per execution (%d)", lat.Attempt.Count, stats.Executions)
	}
	if lat.Attempt.P50Nanos <= 0 || lat.Attempt.P99Nanos < lat.Attempt.P50Nanos {
		t.Fatalf("attempt quantiles implausible: p50=%d p99=%d", lat.Attempt.P50Nanos, lat.Attempt.P99Nanos)
	}
	if lat.BatchPass.Count == 0 {
		t.Fatal("no batch-pass samples recorded")
	}
	if lat.QueueWait.Count == 0 {
		t.Fatal("no queue-wait samples recorded")
	}
	if lat.BarrierWait.Count != 0 {
		t.Fatalf("queued run recorded %d barrier-wait samples", lat.BarrierWait.Count)
	}

	kinds := map[trace.Kind]int{}
	for _, ev := range tr.Events() {
		kinds[ev.Kind]++
	}
	if kinds[trace.KindJob] != 1 {
		t.Fatalf("job spans = %d, want 1", kinds[trace.KindJob])
	}
	if kinds[trace.KindBatch] == 0 || kinds[trace.KindQueueWait] == 0 {
		t.Fatalf("missing batch/queue-wait spans: %v", kinds)
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("run trace is not valid Chrome JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("run trace is empty")
	}
}

// TestSyncRunRecordsBarrierSkew: a synchronous run must record the barrier
// arrival-skew histogram and emit barrier spans.
func TestSyncRunRecordsBarrierSkew(t *testing.T) {
	const n, target = 48, 5
	subs, _ := newCounterSubs(n, target)
	o := obs.New()
	tr := trace.New(3, 4096)
	stats := runJob(t, Config{Workers: 3}, isolation.Options{Level: isolation.Synchronous},
		JobConfig{BatchSize: 4, Observer: o, Tracer: tr}, subs)
	if stats.Rounds == 0 {
		t.Fatal("no rounds")
	}
	lat := o.Snapshot().Latencies
	if lat.Attempt.Count != stats.Executions {
		t.Fatalf("attempt samples = %d, want %d", lat.Attempt.Count, stats.Executions)
	}
	// One skew sample per completed phase: 2 per round (execute + install).
	if lat.BarrierWait.Count < stats.Rounds {
		t.Fatalf("barrier-wait samples = %d, want >= rounds (%d)", lat.BarrierWait.Count, stats.Rounds)
	}
	found := false
	for _, ev := range tr.Events() {
		if ev.Kind == trace.KindBarrier {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no barrier spans in trace")
	}
}

// TestUninstrumentedRunStampsNothing: with neither observer nor tracer, the
// run must leave every queue-wait stamp at zero (the disabled path takes no
// clock readings for instrumentation) and still complete exactly.
func TestUninstrumentedRunStampsNothing(t *testing.T) {
	subs, _ := newCounterSubs(20, 3)
	p, err := NewPool(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	j, err := p.Submit(subs, isolation.Options{Level: isolation.Asynchronous}, JobConfig{BatchSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := j.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Commits != 20*3 {
		t.Fatalf("Commits = %d", stats.Commits)
	}
	for _, b := range j.batches {
		if b.enq != 0 {
			t.Fatal("uninstrumented job stamped a batch's enqueue time")
		}
	}
}

// TestJobIntrospectionAccessors: the accessors the debug server's job table
// relies on.
func TestJobIntrospectionAccessors(t *testing.T) {
	subs, _ := newCounterSubs(12, 2)
	p, err := NewPool(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	j, err := p.Submit(subs, isolation.Options{Level: isolation.Asynchronous}, JobConfig{BatchSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	if j.Total() != 12 {
		t.Fatalf("Total = %d", j.Total())
	}
	if j.Started().IsZero() {
		t.Fatal("Started is zero")
	}
	if _, err := j.Wait(); err != nil {
		t.Fatal(err)
	}
	if !j.Finished() || j.Live() != 0 || j.Err() != nil {
		t.Fatalf("finished job: Finished=%v Live=%d Err=%v", j.Finished(), j.Live(), j.Err())
	}
}
