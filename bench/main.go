// Command bench is this repository's performance benchmark: eight named
// workloads run closed-loop from one client, each checked against an
// oracle, reporting the end-to-end metrics named in BENCHMARK.json — and,
// with -trace 1, the layer ladder (raw loop -> storage -> itx -> exec ->
// db4ml facade -> WAL -> shards) those metrics are attributed with. See
// README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"db4ml/internal/graph"
)

// sizes are the input sizes of every workload. Only the test suite uses
// anything but fullSizes.
type sizes struct {
	rmatScale, rmatEdgeFactor int // pr_sync_pld, pr_sync_shard2
	erNodes, erEdges          int // pr_async_b1
	sgdTrain, sgdTest         int
	sgdFeatures               int
	sgdDensity                float64
	accounts, mlRows          int // oltp_ml_mix
	oltpBurst                 int // transactions per burst
	factRows, dimRows         int // star_query
	walRows                   int // rows per increment uber-transaction
	recRows, recCommits       int // wal_recovery: table size and logged commits
	calibIters                int // length of the host-noise calibration loop
}

var fullSizes = sizes{
	rmatScale: 15, rmatEdgeFactor: 10,
	erNodes: 30_000, erEdges: 180_000,
	sgdTrain: 40_000, sgdTest: 2_000, sgdFeatures: 47_236, sgdDensity: 0.0016,
	accounts: 100_000, mlRows: 4_096, oltpBurst: 1 << 15, // ~35 ms of transactions, several ML jobs long
	factRows: 200_000, dimRows: 25_000,
	walRows: 256, recRows: 20_000, recCommits: 200,
	calibIters: 12_000_000,
}

var shortSizes = sizes{
	rmatScale: 8, rmatEdgeFactor: 6,
	erNodes: 300, erEdges: 1_800,
	sgdTrain: 400, sgdTest: 200, sgdFeatures: 500, sgdDensity: 0.05,
	accounts: 500, mlRows: 64, oltpBurst: 256,
	factRows: 2_000, dimRows: 250,
	walRows: 32, recRows: 200, recCommits: 5,
	calibIters: 100_000,
}

func pld(seed int64, sz sizes) *graph.Graph {
	return graph.RMAT(sz.rmatScale, sz.rmatEdgeFactor, 0.57, 0.19, 0.19, seed)
}

func patents(seed int64, sz sizes) *graph.Graph {
	return graph.ErdosRenyi(sz.erNodes, int64(sz.erEdges), seed)
}

// workloads lists the benchmark's workloads in BENCHMARK.json's order; why
// each exists is recorded there and in README.md.
var workloads = []workload{
	prWorkload("pr_sync_pld", false, 0, pld),
	prWorkload("pr_async_b1", true, 0, patents),
	sgdWorkload("sgd_rcv1"),
	oltpWorkload("oltp_ml_mix"),
	walWorkload("wal_commit_restart"),
	recoveryWorkload("wal_recovery"),
	queryWorkload("star_query"),
	prWorkload("pr_sync_shard2", false, 2, pld),
}

// bounds are the regression bounds of the end-to-end metrics, as in
// BENCHMARK.json; -repeat checks run-to-run spread against them.
var bounds = map[string]float64{
	"lat_p50_ms": 0.25, "lat_tail_ms": 0.25, "ops_per_s": 0.25,
	"overhead_x": 0.20, "setup_s": 0.25, "mem_mb": 0.10,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	seconds := fs.Float64("seconds", 8, "measured window per workload")
	trace := fs.Int("trace", 0, "1 = traced run: per-layer metrics instead of end-to-end ones")
	traceOut := fs.String("trace-out", "", "file the traced run writes its Chrome trace to (default <tmp>/trace-<workload>.json)")
	repeat := fs.Int("repeat", 1, "run the whole set this many times and check the spread of every end-to-end metric against its bound")
	tmp := fs.String("tmp", filepath.Join(os.TempDir(), "db4ml-bench"), "directory for WAL files and traces")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	var set []workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			set = append(set, w)
		}
	}
	if len(set) == 0 {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		return 2
	}

	fmt.Fprintf(out, "host: nproc %d, GOMAXPROCS %d, %s %s/%s; load: closed loop, 1 client, at most 2 busy goroutines; seed %d, window %gs\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, *seed, *seconds)

	// values[workload][metric] holds one value per repeat.
	values := map[string]map[string][]float64{}
	units := map[string]string{}
	total := result{correct: true, metrics: map[string]metric{}}
	for rep := 0; rep < *repeat; rep++ {
		for _, w := range set {
			cfg := runConfig{seed: *seed + int64(rep), seconds: *seconds, sz: fullSizes, tmp: *tmp, out: out}
			var res result
			var err error
			if *trace == 1 {
				cfg.traceOut = *traceOut
				if cfg.traceOut == "" {
					cfg.traceOut = filepath.Join(*tmp, "trace-"+w.name+".json")
				}
				res, err = runTraced(w, cfg)
			} else {
				res, err = runUntraced(w, cfg)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %v\n", err)
				return 1
			}
			printMetrics(out, res)
			total.correct = total.correct && res.correct
			total.attempted += res.attempted
			total.failed += res.failed
			if values[w.name] == nil {
				values[w.name] = map[string][]float64{}
			}
			for m, v := range res.metrics {
				values[w.name][m] = append(values[w.name][m], v.Value)
				units[m] = v.Unit
				key := m
				if len(set) > 1 {
					key = w.name + "." + m
				}
				total.metrics[key] = v
			}
		}
	}

	steady := true
	if *repeat > 1 {
		steady = printSpread(out, set, values, units)
	}

	// The last line: one JSON object (with several workloads, metric names
	// are prefixed "<workload>."; with -repeat, values are the last run's).
	line, err := json.Marshal(map[string]any{
		"correct": total.correct, "attempted": total.attempted, "failed": total.failed, "metrics": total.metrics,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(out, "%s\n", line)
	if !total.correct || !steady {
		return 1
	}
	return 0
}

// printMetrics prints one run's metrics by name with their units.
func printMetrics(out io.Writer, res result) {
	names := make([]string, 0, len(res.metrics))
	for m := range res.metrics {
		names = append(names, m)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, m := range names {
		fmt.Fprintf(&b, "  %s %.6g %s\n", m, res.metrics[m].Value, res.metrics[m].Unit)
	}
	frac := 0.0
	if res.attempted > 0 {
		frac = float64(res.failed) / float64(res.attempted)
	}
	fmt.Fprintf(out, "%s: failed_frac %.6g (%d of %d), oracles %s\n%s", res.workload, frac, res.failed, res.attempted, passed(res.correct), b.String())
}

func passed(ok bool) string {
	if ok {
		return "pass"
	}
	return "FAIL"
}

// printSpread prints, per (metric, workload), each repeat's value and the
// relative spread, and reports whether every bounded metric stayed within
// its bound.
func printSpread(out io.Writer, set []workload, values map[string]map[string][]float64, units map[string]string) bool {
	ok := true
	fmt.Fprintf(out, "spread over repeats (interquartile distance / median; a bounded metric must stay within its bound):\n")
	for _, w := range set {
		names := make([]string, 0, len(values[w.name]))
		for m := range values[w.name] {
			names = append(names, m)
		}
		sort.Strings(names)
		for _, m := range names {
			vs := values[w.name][m]
			sp := spread(vs)
			verdict := ""
			if b, bounded := bounds[m]; bounded {
				verdict = fmt.Sprintf("  bound %.2f ok", b)
				if sp > b {
					verdict = fmt.Sprintf("  bound %.2f EXCEEDED", b)
					ok = false
				}
			}
			fmt.Fprintf(out, "  %-20s %-24s %s  spread %.4f%s\n", w.name, m+" ("+units[m]+")", fmtValues(vs), sp, verdict)
		}
	}
	return ok
}

func fmtValues(vs []float64) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = fmt.Sprintf("%.5g", v)
	}
	return "[" + strings.Join(parts, " ") + "]"
}
