// Command db4ml-bench regenerates the tables and figures of the paper's
// evaluation (Section 7). Each experiment prints the same rows/series the
// paper reports, at a laptop-friendly scale (see DESIGN.md for the
// dataset substitutions).
//
// Usage:
//
//	db4ml-bench -list
//	db4ml-bench -exp fig8
//	db4ml-bench -exp all -workers 16 -runs 5
//	db4ml-bench -exp fig12 -quick
//	db4ml-bench -exp fig9 -quick -telemetry
//	db4ml-bench -exp fig9 -quick -http :6060
//
// With -telemetry, each instrumented job appends one labelled JSON
// telemetry snapshot (per-worker counters, queue gauges, convergence
// series) after its experiment's table. An -exp all run executes every
// experiment even when one fails and exits nonzero if any did.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"

	"db4ml/internal/experiments"
	"db4ml/internal/introspect"
	"db4ml/internal/trace"
)

func main() {
	exp := flag.String("exp", "", "experiment id (see -list), or all to run every experiment (failures are aggregated; exit is nonzero if any failed)")
	workers := flag.Int("workers", 0, "maximum worker count for core sweeps (default 2×GOMAXPROCS, min 8)")
	runs := flag.Int("runs", 0, "repetitions per timed configuration (default 3)")
	quick := flag.Bool("quick", false, "shrink datasets and sweeps for a fast smoke run")
	telemetry := flag.Bool("telemetry", false, "attach an engine observer to selected configurations and print one labelled telemetry snapshot (JSON) per job after each experiment")
	httpAddr := flag.String("http", "", "serve the live debug endpoints on this address (e.g. :6060): /metrics (Prometheus), /debug/trace (Chrome trace_event JSON for Perfetto/about:tracing), /debug/pprof; the process keeps serving after the experiments until interrupted")
	list := flag.Bool("list", false, "list experiment ids and exit")
	flag.Parse()

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Printf("%-8s %s\n", id, experiments.Describe(id))
		}
		return
	}
	if *exp == "" {
		flag.Usage()
		os.Exit(2)
	}
	opts := experiments.Options{
		Out:        os.Stdout,
		MaxWorkers: *workers,
		Runs:       *runs,
		Quick:      *quick,
		Telemetry:  *telemetry,
	}

	var srv *introspect.Server
	if *httpAddr != "" {
		// One tracer and one aggregator span every experiment the process
		// runs; worker indexes past the sized ring count fold into ring 0,
		// so sizing to the sweep ceiling is enough.
		rings := *workers
		if rings <= 0 {
			rings = 2 * runtime.GOMAXPROCS(0)
		}
		opts.Tracer = trace.New(rings, 0)
		opts.Aggregator = introspect.NewAggregator()
		s, err := introspect.Start(introspect.Config{
			Addr:    *httpAddr,
			Metrics: opts.Aggregator.Snapshot,
			Sources: []trace.Source{{Name: "kernel", Tracer: opts.Tracer}},
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "db4ml-bench:", err)
			os.Exit(1)
		}
		srv = s
		fmt.Fprintf(os.Stderr, "db4ml-bench: debug server on http://%s (/metrics, /debug/trace, /debug/pprof)\n", s.Addr())
	}

	err := experiments.Run(*exp, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "db4ml-bench:", err)
	}
	if srv != nil {
		// Keep the endpoints up so the finished run can still be scraped and
		// its trace downloaded; Ctrl-C (or SIGTERM from a harness) exits.
		fmt.Fprintf(os.Stderr, "db4ml-bench: experiments done; still serving http://%s — interrupt to exit\n", srv.Addr())
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
		<-ch
		_ = srv.Close()
	}
	if err != nil {
		os.Exit(1)
	}
}
