package main

import (
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"os"
	"sort"
	"testing"
	"time"
)

// manifest is the part of BENCHMARK.json the benchmark must agree with.
type manifest struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []manifestMetric `json:"end_to_end"`
	PerLayer  []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name, Unit, Better string
	Bound              float64
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(buf, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestManifestNamesTheSameBenchmark: BENCHMARK.json and the program list the
// same workloads, reasons and bounds.
func TestManifestNamesTheSameBenchmark(t *testing.T) {
	m := readManifest(t)
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program %d", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the program %q", i, m.Workloads[i].Name, w.name)
		}
		if len(m.Workloads[i].Why) == 0 || len(m.Workloads[i].Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.name, len(m.Workloads[i].Why))
		}
	}
	if len(m.EndToEnd) != len(bounds) {
		t.Errorf("BENCHMARK.json bounds %d metrics, the program %d", len(m.EndToEnd), len(bounds))
	}
	for _, e := range m.EndToEnd {
		if b, ok := bounds[e.Name]; !ok || b != e.Bound {
			t.Errorf("metric %s: BENCHMARK.json bound %v, the program's %v", e.Name, e.Bound, b)
		}
	}
}

// TestShortPassEmitsEveryMetric runs every workload once untraced and once
// traced at toy sizes and checks that each emits exactly the metrics
// BENCHMARK.json names, with their units, and passes its oracles.
func TestShortPassEmitsEveryMetric(t *testing.T) {
	m := readManifest(t)
	for _, w := range workloads {
		start := time.Now()
		cfg := runConfig{seed: 7, seconds: 0.05, sz: shortSizes, tmp: t.TempDir(), out: io.Discard}
		for _, mode := range []struct {
			name string
			run  func(workload, runConfig) (result, error)
			want []manifestMetric
		}{{"end_to_end", runUntraced, m.EndToEnd}, {"per_layer", runTraced, m.PerLayer}} {
			res, err := mode.run(w, cfg)
			if err != nil {
				t.Fatalf("%s %s: %v", w.name, mode.name, err)
			}
			if !res.correct || res.failed != 0 || res.attempted < 1 {
				t.Errorf("%s %s: correct=%v failed=%d attempted=%d", w.name, mode.name, res.correct, res.failed, res.attempted)
			}
			if len(res.metrics) != len(mode.want) {
				t.Errorf("%s %s: emitted %d metrics, BENCHMARK.json names %d", w.name, mode.name, len(res.metrics), len(mode.want))
			}
			for _, e := range mode.want {
				got, ok := res.metrics[e.Name]
				switch {
				case !ok:
					t.Errorf("%s: metric %s not emitted", w.name, e.Name)
				case got.Unit != e.Unit:
					t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", w.name, e.Name, got.Unit, e.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s: metric %s is %v", w.name, e.Name, got.Value)
				case mode.name == "end_to_end" && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s is %v, must be positive", w.name, e.Name, got.Value)
				}
			}
		}
		t.Logf("%s: %v", w.name, time.Since(start).Round(time.Millisecond))
	}
}

// TestTailRule checks the percentile rule against a sorted-slice oracle:
// the tail is the highest-ranked sample that has at least tailBeyond samples
// beyond it, ranks at or below tailCap and lies above the median rank; if
// there is none, the median.
func TestTailRule(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 10, 11, 21, 22, 23, 24, 50, 999, 1000, 1001, 1100, 5000} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.ExpFloat64()
		}
		sort.Float64s(xs)
		want, wantPct := median(xs), 50.0
		for i := n - 1; i > (n-1)/2; i-- {
			if n-1-i >= tailBeyond && float64(i+1) <= tailCap*float64(n) {
				want, wantPct = xs[i], 100*float64(i+1)/float64(n)
				break
			}
		}
		if got, pct := tail(xs); got != want || math.Abs(pct-wantPct) > 1e-9 {
			t.Errorf("n=%d: tail = %v (p%.4g), oracle %v (p%.4g)", n, got, pct, want, wantPct)
		}
	}
	// The cut itself: 21 samples leave none above the median with ten
	// beyond it, 22 do; 5000 samples stop at p99 with fifty beyond.
	if _, pct := tail(make([]float64, 21)); pct != 50 {
		t.Errorf("21 samples: tail is p%v, want the median", pct)
	}
	if _, pct := tail(make([]float64, 22)); pct <= 50 {
		t.Errorf("22 samples: tail is p%v, want above the median", pct)
	}
	if _, pct := tail(make([]float64, 5000)); pct != 99 {
		t.Errorf("5000 samples: tail is p%v, want p99", pct)
	}
	if m := median([]float64{1, 2, 3, 10}); m != 2.5 {
		t.Errorf("median of an even sample = %v", m)
	}
}

// TestSpreadMatchesPythonQuantiles pins spread to
// statistics.quantiles(xs, n=4): for 1..10 the quartiles are 2.75 and 8.25.
func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	xs := []float64{7, 1, 9, 3, 5, 2, 10, 4, 8, 6}
	if got, want := spread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

// TestSpanSelfTimes checks self time (span minus children) and the
// parts-sum-to-whole assertion, including the cases it must reject.
func TestSpanSelfTimes(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	tr := &tracer{spans: []span{
		{name: "op", op: 1, parent: -1, start: ms(0), end: ms(100)},
		{name: "a", op: 1, parent: 0, start: ms(10), end: ms(40)},
		{name: "b", op: 1, parent: 0, start: ms(40), end: ms(90)},
		{name: "b.inner", op: 1, parent: 2, start: ms(50), end: ms(60)},
	}, ops: 1}
	self := tr.selfTimes()
	for i, want := range []time.Duration{ms(20), ms(30), ms(40), ms(10)} {
		if self[i] != want {
			t.Errorf("self time of %s = %v, want %v", tr.spans[i].name, self[i], want)
		}
	}
	if worst, err := tr.check(0.05); err != nil || worst != 0 {
		t.Errorf("well-nested spans: worst=%v err=%v", worst, err)
	}
	names, total := tr.selfByName()
	if len(names) != 4 || total["b"] != ms(40) {
		t.Errorf("selfByName = %v %v", names, total)
	}

	// Children that overlap cover more than their parent: rejected.
	tr.spans[1].end = ms(95)
	if _, err := tr.check(0.05); err == nil {
		t.Error("overlapping children passed the parts-sum check")
	}

	// The live recorder nests by call order.
	live := newTracer(100)
	root := live.begin("op")
	kid := live.begin("kid")
	live.end(kid)
	live.end(root)
	if live.spans[1].parent != 0 || live.spans[0].parent != -1 || live.ops != 1 {
		t.Errorf("recorded spans %+v", live.spans)
	}
	if _, err := live.check(0.05); err != nil {
		t.Error(err)
	}
	var none *tracer
	none.end(none.begin("untraced")) // a nil tracer records nothing and does not panic
}
