// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 7). Each Fig*/Table* function runs one experiment at
// a laptop-friendly scale and prints the same rows/series the paper
// reports; the cmd/db4ml-bench binary and the repository's benchmarks are
// thin wrappers around them. DESIGN.md carries the per-experiment index,
// EXPERIMENTS.md the measured-vs-paper comparison.
package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"text/tabwriter"
	"time"

	"db4ml/internal/exec"
	"db4ml/internal/introspect"
	"db4ml/internal/obs"
	"db4ml/internal/trace"
)

// rngInt63n draws from the global (mutex-guarded) source — used by
// straggler hooks that run on several workers at once.
func rngInt63n(n int64) int64 { return rand.Int63n(n) }

// Options tunes all experiments.
type Options struct {
	// Out receives the experiment's printed table.
	Out io.Writer
	// MaxWorkers bounds the core sweeps; defaults to
	// max(8, 2·GOMAXPROCS) so the shape past physical cores is visible.
	MaxWorkers int
	// Runs is how many times timed configurations repeat (averaged);
	// defaults to 3 (the paper's Figure 1 averages 5).
	Runs int
	// Quick shrinks datasets and sweeps for use in unit tests and smoke
	// runs.
	Quick bool
	// Telemetry attaches an engine observer to selected configurations and
	// appends their telemetry snapshots (JSON) after the experiment's
	// table. Off by default: a nil observer keeps the engine's hot paths
	// untouched.
	Telemetry bool
	// Tracer, when non-nil, records every instrumented configuration's
	// scheduling timeline into its ring buffers (db4ml-bench -http serves
	// it at /debug/trace).
	Tracer *trace.Tracer
	// Aggregator, when non-nil, folds every instrumented run's telemetry
	// into a process-wide view (db4ml-bench -http serves it at /metrics).
	// Setting it attaches observers even with Telemetry off.
	Aggregator *introspect.Aggregator
}

func (o Options) withDefaults() Options {
	if o.Out == nil {
		o.Out = io.Discard
	}
	if o.MaxWorkers <= 0 {
		o.MaxWorkers = 2 * runtime.GOMAXPROCS(0)
		if o.MaxWorkers < 8 {
			o.MaxWorkers = 8
		}
	}
	if o.Runs <= 0 {
		if o.Quick {
			o.Runs = 1
		} else {
			o.Runs = 3
		}
	}
	return o
}

// workerSweep returns the core-count series of the scalability figures:
// powers of two from 1 to MaxWorkers (the paper sweeps 1–64).
func (o Options) workerSweep() []int {
	var out []int
	for w := 1; w <= o.MaxWorkers; w *= 2 {
		out = append(out, w)
	}
	return out
}

// newPool starts the worker pool a DB4ML run submits its job to; the
// caller closes it. Pools start outside every timed region, like table
// loads: the engine is resident before a job arrives.
func newPool(cfg exec.Config) *exec.Pool {
	p, err := exec.NewPool(cfg)
	if err != nil {
		panic(err)
	}
	return p
}

// observe attaches a fresh observer (and the shared tracer/aggregator, when
// configured) to cfg and returns a dump function that prints the run's
// per-run summary line — p50/p95/p99 attempt latency, rollback ratio,
// steals — plus, under Options.Telemetry, the full telemetry snapshot as
// labelled JSON. With everything off, both the attachment and the dump are
// no-ops. Callers collect the dump functions and invoke them after the
// experiment's table has been flushed, so JSON never interleaves with rows.
func (o Options) observe(cfg *exec.JobConfig, label string) func() {
	if !o.Telemetry && o.Aggregator == nil && o.Tracer == nil {
		return func() {}
	}
	ob := obs.New()
	cfg.Observer = ob
	cfg.Tracer = o.Tracer
	o.Aggregator.Attach(ob)
	return func() {
		snap := ob.Snapshot()
		fmt.Fprintf(o.Out, "\n-- summary: %s -- %s\n", label, summaryLine(snap))
		if o.Telemetry {
			if js, err := snap.JSON(); err != nil {
				fmt.Fprintf(o.Out, "-- telemetry: %s -- error: %v\n", label, err)
			} else {
				fmt.Fprintf(o.Out, "-- telemetry: %s --\n%s\n", label, js)
			}
		}
		o.Aggregator.Complete(ob)
	}
}

// summaryLine condenses one run's snapshot into the single line db4ml-bench
// appends per instrumented configuration, so a run's output captures
// latency distributions rather than wall-clock alone.
func summaryLine(snap obs.Snapshot) string {
	a := snap.Latencies.Attempt
	c := snap.Cumulative
	ratio := 0.0
	if c.Executions > 0 {
		ratio = float64(c.Rollbacks) / float64(c.Executions)
	}
	return fmt.Sprintf("attempt p50/p95/p99 %s/%s/%s  rollback %.2f%%  steals %d  commits %d",
		time.Duration(a.P50Nanos), time.Duration(a.P95Nanos), time.Duration(a.P99Nanos),
		100*ratio, c.Steals, c.Commits)
}

// timed runs fn `runs` times and returns the mean wall-clock duration.
func timed(runs int, fn func()) time.Duration {
	var total time.Duration
	for i := 0; i < runs; i++ {
		t0 := time.Now()
		fn()
		total += time.Since(t0)
	}
	return total / time.Duration(runs)
}

// tab creates an aligned table writer with a header row.
func tab(w io.Writer, headers ...string) *tabwriter.Writer {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	for i, h := range headers {
		if i > 0 {
			fmt.Fprint(tw, "\t")
		}
		fmt.Fprint(tw, h)
	}
	fmt.Fprintln(tw)
	return tw
}

func row(tw *tabwriter.Writer, cells ...any) {
	for i, c := range cells {
		if i > 0 {
			fmt.Fprint(tw, "\t")
		}
		switch v := c.(type) {
		case float64:
			fmt.Fprintf(tw, "%.4g", v)
		case time.Duration:
			fmt.Fprintf(tw, "%.2fms", float64(v)/1e6)
		default:
			fmt.Fprintf(tw, "%v", v)
		}
	}
	fmt.Fprintln(tw)
}

func header(w io.Writer, title string) {
	fmt.Fprintf(w, "\n== %s ==\n", title)
}
