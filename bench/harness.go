package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// instance is one set-up copy of a workload: its database(s) loaded, its
// inputs generated, one warm-up op done. The harness drives it closed-loop
// from a single client goroutine.
type instance interface {
	// unitsPerOp is how many units of work (workload.unit) one op does.
	unitsPerOp() float64
	// burst is how many ops run back-to-back between baseline runs; 1 for
	// ops long enough to interleave one-for-one.
	burst() int
	// op runs one end-to-end operation through the public facade, from
	// submit to committed-and-visible (result read back where there is one).
	op() error
	// baseline runs the hand-written specialised engine on the same inputs
	// and returns the time of one op's worth of it — the denominator of
	// overhead_x. After every burst the harness runs it baselineReps()
	// times and keeps the median: a fixed count per workload, more where
	// the baseline is short next to the op and a single run of it would be
	// the noisier side of the ratio.
	baseline() (time.Duration, error)
	baselineReps() int
	// verify checks the outputs of the ops since the last call against the
	// workload's oracle; it runs untimed between bursts.
	verify() error
	// finish runs the window-end oracle (which may restart the database).
	finish() error
	close()

	// traced runs one op by hand through each layer's public functions
	// with a span around each call.
	traced(tr *tracer) error
	// rungs is the workload's layer ladder, raw loop first.
	rungs() []rung
	// native names the rung the untraced op corresponds to.
	native() string
	// detail prints layer counts that are not part of the ladder.
	detail(w io.Writer) error
}

// workload is one named set of inputs. setup generates them from the seed
// and returns a ready instance; everything it does is setup_s.
type workload struct {
	name string
	unit string
	// setup builds one instance. tmp is a fresh directory for files.
	setup func(seed int64, sz sizes, tmp string) (instance, error)
}

// rung is one step of the layer ladder: the workload's op executed using
// only the repo's layers up to and including the named one. prep does the
// set-up outside the timed region and returns the op (doing burst() ops
// per call) plus a cleanup. A workload lists only the rungs whose layer its
// op enters; a missing rung reports the measurement of the rung it would
// have been compared with (rungBase), since running "up to" a layer the op
// never enters is the same code, and its ratio is 1.
type rung struct {
	name string
	prep prepFunc
}

type prepFunc = func() (op func() error, done func(), err error)

// plainRung is the prep of a rung whose op needs no set-up.
func plainRung(op func() error) prepFunc {
	return func() (func() error, func(), error) { return op, func() {}, nil }
}

// rungNames is the ladder every workload reports, in order.
var rungNames = []string{"raw", "storage", "kernel", "exec1", "exec2", "db4ml", "wal", "shard1", "shard2"}

// rungBase names the rung each rung's ratio (<rung>_x) is taken against:
// the previous layer on the path. exec2 over exec1 is the parallel
// efficiency; shard1 over db4ml answers "does a 1-shard cluster cost
// anything over Open?".
var rungBase = map[string]string{
	"storage": "raw", "kernel": "storage", "exec1": "kernel", "exec2": "exec1",
	"db4ml": "exec2", "wal": "db4ml", "shard1": "db4ml", "shard2": "shard1",
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run of one workload produced.
type result struct {
	workload  string
	correct   bool
	attempted int
	failed    int
	metrics   map[string]metric
}

func (r *result) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// timeOf times one call of f.
func timeOf(f func() error) (time.Duration, error) {
	t0 := time.Now()
	err := f()
	return time.Since(t0), err
}

// sink keeps the calibration loop's result alive.
var sink uint64

// calibrate times a fixed pure-CPU loop (median of three). It touches no
// memory and calls nothing, so a change between two readings means the
// host — not the database — changed speed.
func calibrate(iters int) time.Duration {
	var ds [3]time.Duration
	for i := range ds {
		x := uint64(88172645463325252)
		t0 := time.Now()
		for j := 0; j < iters; j++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		ds[i] = time.Since(t0)
		sink += x
	}
	sort.Slice(ds[:], func(a, b int) bool { return ds[a] < ds[b] })
	return ds[1]
}

// heapMB is the live heap after a forced collection, in MB. HeapAlloc, not
// HeapInuse: in-use spans count the free slots of partly filled size
// classes, which on a heap of a few MB moves the number by a tenth from run
// to run without any object having changed.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// A run sets the workload up several times — at least setupMin, then until
// setupBudget is spent or setupMax is reached, so millisecond set-ups get
// enough repeats to be steady — and reports the median as setup_s. The
// last instance is the one measured.
const (
	setupMin    = 3
	setupMax    = 25
	setupBudget = 1500 * time.Millisecond
)

// throughputSlices is how many consecutive slices of the window ops_per_s
// is the median of (see runUntraced).
const throughputSlices = 8

type runConfig struct {
	seed     int64
	seconds  float64
	sz       sizes
	tmp      string
	out      io.Writer
	traceOut string
}

// tmpDir makes a fresh directory under cfg.tmp.
func (c runConfig) tmpDir(name string) (string, error) {
	if err := os.MkdirAll(c.tmp, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(c.tmp, name+"-")
}

// setUp builds one instance in a fresh temp directory and reports how long
// that took.
func setUp(w workload, cfg runConfig) (instance, time.Duration, string, error) {
	dir, err := cfg.tmpDir(w.name)
	if err != nil {
		return nil, 0, "", err
	}
	t0 := time.Now()
	inst, err := w.setup(cfg.seed, cfg.sz, dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, 0, "", fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	return inst, time.Since(t0), dir, nil
}

// runUntraced measures the end-to-end metrics of one workload: closed loop,
// one client, tracing off.
func runUntraced(w workload, cfg runConfig) (result, error) {
	res := result{workload: w.name, metrics: map[string]metric{}}
	calibBefore := calibrate(cfg.sz.calibIters)

	var inst instance
	var dir string
	var setups []float64
	for spent := time.Duration(0); len(setups) < setupMin || (spent < setupBudget && len(setups) < setupMax); {
		if inst != nil {
			inst.close()
			os.RemoveAll(dir)
			runtime.GC()
		}
		var d time.Duration
		var err error
		if inst, d, dir, err = setUp(w, cfg); err != nil {
			return res, err
		}
		setups = append(setups, d.Seconds())
		spent += d
	}
	defer func() {
		inst.close()
		os.RemoveAll(dir)
	}()

	// One burst = burst() ops, then the baseline, then the oracle. Pairing
	// each burst's ops with the baseline run right after them is what makes
	// overhead_x immune to host drift: both sides of every ratio are
	// measured within the same fraction of a second.
	var ops []float64    // ns per op, in issue order
	var ratios []float64 // per burst: median op time / baseline time per op
	var bases []float64  // per burst: baseline ns per op
	var errs []error
	burst := inst.burst()
	fail := func(err error) {
		res.failed++
		if len(errs) < 3 {
			errs = append(errs, err)
		}
	}
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for time.Now().Before(deadline) {
		lo := len(ops)
		for i := 0; i < burst; i++ {
			t0 := time.Now()
			err := inst.op()
			d := time.Since(t0)
			res.attempted++
			if err != nil {
				fail(err)
				continue
			}
			ops = append(ops, float64(d))
		}
		reps := make([]float64, inst.baselineReps())
		for i := range reps {
			d, err := inst.baseline()
			if err != nil {
				return res, fmt.Errorf("%s: baseline: %w", w.name, err)
			}
			reps[i] = float64(d)
		}
		if len(ops) > lo {
			sort.Float64s(reps)
			bases = append(bases, median(reps))
			ratios = append(ratios, median(sortedCopy(ops[lo:]))/median(reps))
		}
		if err := inst.verify(); err != nil {
			fail(err)
		}
	}
	if len(ops) == 0 {
		return res, fmt.Errorf("%s: no op completed: %v", w.name, errs)
	}

	// Throughput: ops per second the client spent inside ops, taken as the
	// median over throughputSlices consecutive slices of the window, so one
	// disturbed second moves one slice, not the result.
	var rates []float64
	for i := 0; i < throughputSlices; i++ {
		lo, hi := i*len(ops)/throughputSlices, (i+1)*len(ops)/throughputSlices
		var busy float64
		for _, d := range ops[lo:hi] {
			busy += d
		}
		if hi > lo {
			rates = append(rates, float64(hi-lo)/(busy/1e9))
		}
	}
	sort.Float64s(rates)
	sort.Float64s(ops)
	sort.Float64s(ratios)
	sort.Float64s(bases)
	p50 := median(ops)
	tailV, tailPct := tail(ops)
	ops = nil // the samples are the harness's memory, not the database's
	if q, ok := inst.(interface{ quiesce() error }); ok {
		// Background work whose phase would otherwise decide the reading.
		if err := q.quiesce(); err != nil {
			fail(err)
		}
	}
	mem := heapMB()

	if err := inst.finish(); err != nil {
		fail(err)
	}
	if res.failed > res.attempted {
		res.failed = res.attempted
	}
	res.correct = res.failed == 0

	sort.Float64s(setups)
	res.set("lat_p50_ms", p50/1e6, "ms")
	res.set("lat_tail_ms", tailV/1e6, "ms")
	res.set("ops_per_s", median(rates), "1/s")
	res.set("overhead_x", median(ratios), "x")
	res.set("setup_s", median(setups), "s")
	res.set("mem_mb", mem, "MB")

	fmt.Fprintf(cfg.out, "%s: %d ops (%d failed), lat_tail is p%.4g, baseline %.4g ms/op over %d bursts\n",
		w.name, res.attempted, res.failed, tailPct, median(bases)/1e6, len(bases))
	noiseGuard(cfg, w.name, calibBefore)
	for _, err := range errs {
		fmt.Fprintf(cfg.out, "%s: FAILED: %v\n", w.name, err)
	}
	return res, nil
}

// noiseGuard repeats the calibration loop at the end of a workload and
// marks the workload noisy when the host's speed moved by more than a
// tenth since calibBefore: a disturbed run is to be rerun, not believed.
func noiseGuard(cfg runConfig, name string, calibBefore time.Duration) {
	calibAfter := calibrate(cfg.sz.calibIters)
	drift := float64(calibAfter-calibBefore) / float64(calibBefore)
	tag := ""
	if drift > 0.10 || drift < -0.10 {
		tag = "  ** noisy: host speed moved > 10% during this workload, rerun it **"
	}
	fmt.Fprintf(cfg.out, "%s: calib_ns before %d after %d (%+.1f%%)%s\n",
		name, calibBefore.Nanoseconds(), calibAfter.Nanoseconds(), 100*drift, tag)
}

// rungResult is one measured rung.
type rungResult struct {
	nsPerUnit, allocsPerUnit float64
	nsPerCall                float64 // median wall of one call (burst ops)
	inherited                bool
}

// measureRung runs one rung for at least minCalls calls and minTime.
func measureRung(r rung, units float64, minTime time.Duration) (rungResult, error) {
	op, done, err := r.prep()
	if err != nil {
		return rungResult{}, fmt.Errorf("rung %s: %w", r.name, err)
	}
	defer done()
	if err := op(); err != nil { // warm-up, untimed
		return rungResult{}, fmt.Errorf("rung %s: %w", r.name, err)
	}
	const minCalls = 3
	var ds []float64
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for len(ds) < minCalls || time.Since(start) < minTime {
		t0 := time.Now()
		if err := op(); err != nil {
			return rungResult{}, fmt.Errorf("rung %s: %w", r.name, err)
		}
		ds = append(ds, float64(time.Since(t0)))
	}
	runtime.ReadMemStats(&ms1)
	sort.Float64s(ds)
	med := median(ds)
	return rungResult{
		nsPerUnit:     med / units,
		allocsPerUnit: float64(ms1.Mallocs-ms0.Mallocs) / (units * float64(len(ds))),
		nsPerCall:     med,
	}, nil
}

// tracedSpanBudget bounds the in-memory trace (OLTP ops are ~1 µs each).
const tracedSpanBudget = 200_000

// runTraced produces the per-layer metrics of one workload: the traced op
// (spans around every public call the harness makes), the layer ladder,
// and the workload's extra layer counts.
func runTraced(w workload, cfg runConfig) (result, error) {
	res := result{workload: w.name, metrics: map[string]metric{}, correct: true}
	calibBefore := calibrate(cfg.sz.calibIters)
	inst, _, dir, err := setUp(w, cfg)
	if err != nil {
		return res, err
	}
	defer func() {
		inst.close()
		os.RemoveAll(dir)
	}()
	slot := time.Duration(cfg.seconds / float64(len(rungNames)+1) * float64(time.Second))
	unitsPerCall := inst.unitsPerOp() * float64(inst.burst())

	// Traced ops: at least three, then until the slot or the span budget
	// is spent.
	tr := newTracer(tracedSpanBudget)
	var traced []float64 // ns per op
	for start := time.Now(); !tr.full() && (len(traced) < 3 || time.Since(start) < slot); {
		t0 := time.Now()
		err := inst.traced(tr)
		d := time.Since(t0)
		res.attempted++
		if err != nil {
			return res, fmt.Errorf("%s: traced op: %w", w.name, err)
		}
		traced = append(traced, float64(d))
		if err := inst.verify(); err != nil {
			res.failed++
			fmt.Fprintf(cfg.out, "%s: FAILED: %v\n", w.name, err)
		}
	}
	worst, err := tr.check(0.05)
	if err != nil {
		res.failed++
		fmt.Fprintf(cfg.out, "%s: FAILED: %v\n", w.name, err)
	}
	names, self := tr.selfByName()
	var total time.Duration
	for _, d := range self {
		total += d
	}
	fmt.Fprintf(cfg.out, "%s: traced %d ops, %d spans, self times sum to the op wall within %.2g%%\n",
		w.name, tr.ops, len(tr.spans), 100*worst)
	for _, n := range names {
		fmt.Fprintf(cfg.out, "  span %-28s self %6.2f%%  %10.1f ns/op\n", n, 100*float64(self[n])/float64(total), float64(self[n])/float64(tr.ops))
	}
	if cfg.traceOut != "" {
		if err := os.MkdirAll(filepath.Dir(cfg.traceOut), 0o755); err != nil {
			return res, err
		}
		if err := tr.writeChrome(cfg.traceOut); err != nil {
			return res, err
		}
		fmt.Fprintf(cfg.out, "%s: Chrome trace written to %s\n", w.name, cfg.traceOut)
	}

	// The ladder.
	have := map[string]rung{}
	for _, r := range inst.rungs() {
		have[r.name] = r
	}
	got := map[string]rungResult{}
	fmt.Fprintf(cfg.out, "%s: ladder, per %s (each rung runs the op through the layers up to it)\n", w.name, w.unit)
	fmt.Fprintf(cfg.out, "  %-8s %14s %14s %10s\n", "rung", "ns_per_unit", "allocs_per_unit", "rung_x")
	for _, name := range rungNames {
		base, hasBase := rungBase[name]
		var rr rungResult
		if r, ok := have[name]; ok {
			if rr, err = measureRung(r, unitsPerCall, slot); err != nil {
				return res, fmt.Errorf("%s: %w", w.name, err)
			}
			runtime.GC()
		} else if hasBase {
			rr = got[base]
			rr.inherited = true
		} else {
			return res, fmt.Errorf("%s: ladder has no %s rung", w.name, name)
		}
		got[name] = rr
		res.set(name+"_ns_per_unit", rr.nsPerUnit, "ns")
		res.set(name+"_allocs_per_unit", rr.allocsPerUnit, "allocs")
		x, note := 1.0, ""
		if hasBase {
			x = rr.nsPerUnit / got[base].nsPerUnit
			res.set(name+"_x", x, "x")
		}
		if rr.inherited {
			note = "  (layer not on this op's path: same as " + base + ")"
		}
		fmt.Fprintf(cfg.out, "  %-8s %14.2f %14.4f %10.3f%s\n", name, rr.nsPerUnit, rr.allocsPerUnit, x, note)
	}
	nat := got[inst.native()]
	res.set("ladder_x", nat.nsPerUnit/got["raw"].nsPerUnit, "x")
	// Means on both sides: a rung call times a whole burst, so for
	// microsecond ops its per-op figure is a mean, not a median.
	untraced := nat.nsPerCall / float64(inst.burst()) // ns per op
	var tracedMean float64
	for _, d := range traced {
		tracedMean += d / float64(len(traced))
	}
	overhead := (tracedMean - untraced) / untraced
	res.set("trace_overhead_frac", overhead, "frac")
	res.set("span_sum_err_frac", worst, "frac")
	fmt.Fprintf(cfg.out, "%s: ladder_x (raw -> %s) %.3f; traced op %.4g ms vs untraced %.4g ms: trace_overhead_frac %+.3f\n",
		w.name, inst.native(), nat.nsPerUnit/got["raw"].nsPerUnit, tracedMean/1e6, untraced/1e6, overhead)

	if err := inst.detail(cfg.out); err != nil {
		res.failed++
		fmt.Fprintf(cfg.out, "%s: FAILED: %v\n", w.name, err)
	}
	res.correct = res.failed == 0
	noiseGuard(cfg, w.name, calibBefore)
	return res, nil
}
