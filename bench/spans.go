package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one timed call the harness made into a layer. Spans of one op
// share the op's id; parent is the index of the enclosing span, -1 for the
// op's root.
type span struct {
	name       string
	op, parent int
	start, end time.Duration // offsets from the tracer's origin
}

// tracer records spans in memory around the public calls the harness makes
// (spans inside the kernel are a later change). It is single-goroutine —
// only the client goroutine that drives an op touches it — and nil-safe, so
// the untraced path runs the same code with a nil tracer.
type tracer struct {
	origin time.Time
	spans  []span
	stack  []int
	ops    int
	max    int // stop recording new ops past this many spans
}

func newTracer(maxSpans int) *tracer {
	return &tracer{origin: time.Now(), max: maxSpans}
}

// full reports whether the span budget is spent; traced loops stop
// recording (not running) once it is.
func (t *tracer) full() bool { return t != nil && len(t.spans) >= t.max }

// begin opens a span under the innermost open one and returns its handle.
// A span opened with no parent starts a new op.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	} else {
		t.ops++
	}
	t.spans = append(t.spans, span{name: name, op: t.ops, parent: parent, start: time.Since(t.origin)})
	id := len(t.spans) - 1
	t.stack = append(t.stack, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].end = time.Since(t.origin)
	t.stack = t.stack[:len(t.stack)-1]
}

// selfTimes returns each span's self time: its duration minus the part its
// direct children cover.
func (t *tracer) selfTimes() []time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	return self
}

// check asserts that, for every op, the self times of its spans sum to the
// op's wall time within tol (a share of the wall): the per-layer parts must
// account for the whole. A child that leaks outside its parent or overlaps
// a sibling breaks the sum and is reported.
func (t *tracer) check(tol float64) (worst float64, err error) {
	self := t.selfTimes()
	sum := make(map[int]time.Duration)
	wall := make(map[int]time.Duration)
	for i, s := range t.spans {
		if self[i] < 0 {
			return 0, fmt.Errorf("span %q of op %d: children cover more than the span itself", s.name, s.op)
		}
		sum[s.op] += self[i]
		if s.parent < 0 {
			wall[s.op] = s.end - s.start
		}
	}
	for op, w := range wall {
		if w <= 0 {
			continue
		}
		d := float64(sum[op]-w) / float64(w)
		if d < 0 {
			d = -d
		}
		if d > worst {
			worst = d
		}
	}
	if worst > tol {
		return worst, fmt.Errorf("span self times miss the op wall by %.1f%% (> %.0f%%)", 100*worst, 100*tol)
	}
	return worst, nil
}

// selfByName sums self time per span name, in first-seen order.
func (t *tracer) selfByName() (names []string, total map[string]time.Duration) {
	total = make(map[string]time.Duration)
	for i, d := range t.selfTimes() {
		n := t.spans[i].name
		if _, ok := total[n]; !ok {
			names = append(names, n)
		}
		total[n] += d
	}
	return names, total
}

// writeChrome writes the spans as Chrome trace_event JSON (complete
// events, one tid per op so ops stack as rows in Perfetto/about:tracing).
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		events[i] = event{
			Name: s.name, Ph: "X",
			Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			Pid: 1, Tid: s.op,
			Args: map[string]int{"op": s.op, "id": i, "parent": s.parent},
		}
	}
	buf, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ns"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
