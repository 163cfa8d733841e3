package db4ml

import (
	"bytes"
	"context"
	"encoding/json"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"db4ml/internal/trace"
)

// chromeDoc mirrors the subset of the Chrome trace_event format the merged
// cross-shard export emits: metadata rows naming each process (one per
// trace source) and span/instant rows carrying the correlation id in args.
type chromeDoc struct {
	TraceEvents []chromeEv `json:"traceEvents"`
}

type chromeEv struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Pid  uint64         `json:"pid"`
	Tid  int32          `json:"tid"`
	Ts   float64        `json:"ts"`
	Args map[string]any `json:"args"`
}

func parseChromeTrace(t *testing.T, body []byte) chromeDoc {
	t.Helper()
	var doc chromeDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("trace not valid Chrome JSON: %v", err)
	}
	return doc
}

// processNames extracts pid → process_name from the metadata rows.
func processNames(doc chromeDoc) map[uint64]string {
	names := make(map[uint64]string)
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" && ev.Name == "process_name" {
			if n, ok := ev.Args["name"].(string); ok {
				names[ev.Pid] = n
			}
		}
	}
	return names
}

// metricValue parses one un-labelled sample line out of a Prometheus text
// exposition body; -1 when the family is absent.
func metricValue(body, name string) float64 {
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` ([0-9eE.+-]+)$`)
	m := re.FindStringSubmatch(body)
	if m == nil {
		return -1
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		return -1
	}
	return v
}

// runShardedWorkload drives one distributed ML job (every shard owns rows,
// so the uber-commit prepares on all of them) and one scattered query.
func runShardedWorkload(t *testing.T, db *ShardedDB, tbl *Table, n int) {
	t.Helper()
	subs := make([]IterativeTransaction, n)
	for i := range subs {
		subs[i] = &incSub{tbl: tbl, row: RowID(i), target: 3}
	}
	if _, err := db.RunML(MLRun{
		Label:     "obs-e2e",
		Isolation: MLOptions{Level: Asynchronous},
		Attach:    []Attachment{{Table: tbl}},
		Subs:      subs,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.RunQuery(context.Background(), QueryRun{
		Plan: Filter(Scan(tbl), FloatCmp("Value", Gt, 0)),
	}); err != nil {
		t.Fatal(err)
	}
}

// TestShardedDebugServerEndToEnd is the acceptance test for the sharded
// debug surface: a 4-shard cluster under WithDebugServer + WithWAL runs an
// ML job and a query, takes a checkpoint, and every endpoint reflects it —
// one merged Chrome trace with all shards as processes and the 2PC window
// visible, /metrics exposing the wal/checkpoint/2PC families with nonzero
// values, per-shard breakdowns on /debug/shards, shard-and-commit-ts
// columns on /debug/jobs, and the query's plan on /debug/query.
func TestShardedDebugServerEndToEnd(t *testing.T) {
	const shards, n = 4, 32
	db, tbl := openShardedCounters(t, shards, n,
		WithDebugServer("127.0.0.1:0"),
		WithWAL(t.TempDir()),
		WithWALSync(WALSyncAlways))
	defer db.Close()
	if db.DebugAddr() == "" {
		t.Fatal("DebugAddr empty with WithDebugServer")
	}
	base := "http://" + db.DebugAddr()

	runShardedWorkload(t, db, tbl, n)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	// /metrics: the durability and 2PC families must exist and be nonzero.
	body := scrapeURL(t, base+"/metrics")
	for _, name := range []string{
		"db4ml_twopc_prepares_total",
		"db4ml_wal_appends_total",
		"db4ml_wal_fsyncs_total",
		"db4ml_checkpoints_total",
		"db4ml_ckpt_sections_written_total",
		"db4ml_wal_fsync_latency_seconds_count",
		"db4ml_checkpoint_duration_seconds_count",
		"db4ml_twopc_prepare_latency_seconds_count",
		"db4ml_twopc_commit_window_latency_seconds_count",
		"db4ml_wal_batch_records_count",
		"db4ml_commits_total",
	} {
		if v := metricValue(body, name); v <= 0 {
			t.Errorf("/metrics %s = %v, want > 0", name, v)
		}
	}
	// Abort counter exists even when zero (families are always rendered).
	if !strings.Contains(body, "db4ml_twopc_aborts_total") {
		t.Error("/metrics missing db4ml_twopc_aborts_total family")
	}

	// /debug/shards: one entry per shard, each a live kernel.
	var shardRows []struct {
		Shard       int    `json:"shard"`
		Workers     int    `json:"workers"`
		TraceEvents int    `json:"trace_events"`
		Stable      uint64 `json:"stable"`
	}
	if err := json.Unmarshal([]byte(scrapeURL(t, base+"/debug/shards")), &shardRows); err != nil {
		t.Fatalf("/debug/shards not valid JSON: %v", err)
	}
	if len(shardRows) != shards {
		t.Fatalf("/debug/shards rows = %d, want %d", len(shardRows), shards)
	}
	for i, r := range shardRows {
		if r.Shard != i || r.Workers <= 0 {
			t.Fatalf("shard row %d = %+v", i, r)
		}
	}

	// /debug/jobs: the settled run appears once per shard, rows carrying
	// the shard column and the uber-commit timestamp.
	var jobs []struct {
		ID       uint64 `json:"id"`
		Label    string `json:"label"`
		State    string `json:"state"`
		Shard    *int   `json:"shard"`
		CommitTS uint64 `json:"commit_ts"`
	}
	if err := json.Unmarshal([]byte(scrapeURL(t, base+"/debug/jobs")), &jobs); err != nil {
		t.Fatalf("/debug/jobs not valid JSON: %v", err)
	}
	perShard := make(map[int]int)
	for _, j := range jobs {
		if !strings.HasPrefix(j.Label, "obs-e2e") {
			continue
		}
		if j.Shard == nil {
			t.Fatalf("sharded job row missing shard column: %+v", j)
		}
		if j.CommitTS == 0 {
			t.Fatalf("settled job row missing commit_ts: %+v", j)
		}
		perShard[*j.Shard]++
	}
	if len(perShard) != shards {
		t.Fatalf("job rows cover %d shards, want %d: %v", len(perShard), shards, perShard)
	}

	// /debug/query: the scattered query is listed with its rendered plan.
	var queries []struct {
		State   string `json:"state"`
		Rows    int64  `json:"rows"`
		Explain string `json:"explain"`
	}
	if err := json.Unmarshal([]byte(scrapeURL(t, base+"/debug/query")), &queries); err != nil {
		t.Fatalf("/debug/query not valid JSON: %v", err)
	}
	if len(queries) == 0 {
		t.Fatal("/debug/query empty after a query ran")
	}
	q := queries[len(queries)-1]
	if q.State != "done" || !strings.Contains(q.Explain, "scan(Counter)") {
		t.Fatalf("query row = %+v, want done with a scan(Counter) plan", q)
	}

	// /debug/trace: one merged Chrome trace. Every shard is a named
	// process alongside the coordinator, and the distributed commit is
	// causally visible: prepare spans and the commit-window span of one
	// uber-transaction share the same correlation id.
	raw := []byte(scrapeURL(t, base+"/debug/trace"))
	doc := parseChromeTrace(t, raw)
	names := processNames(doc)
	byName := make(map[string]bool)
	for _, n := range names {
		byName[n] = true
	}
	for _, want := range []string{"coordinator", "shard0", "shard1", "shard2", "shard3"} {
		if !byName[want] {
			t.Fatalf("merged trace missing process %q; got %v", want, names)
		}
	}

	prepares := make(map[float64]int) // correlation id → prepare span count
	windows := make(map[float64]bool) // correlation id → commit-window seen
	kinds := make(map[string]bool)
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" {
			continue
		}
		kinds[ev.Name] = true
		id, _ := ev.Args["id"].(float64)
		switch ev.Name {
		case "prepare":
			prepares[id]++
		case "commit-window":
			windows[id] = true
		}
	}
	for _, want := range []string{"uber-begin", "prepare", "commit-window", "wal", "fsync", "checkpoint", "ckpt-section", "batch"} {
		if !kinds[want] {
			t.Fatalf("merged trace missing %q spans; got %v", want, kinds)
		}
	}
	if len(windows) == 0 {
		t.Fatal("no commit-window spans in merged trace")
	}
	for id := range windows {
		if prepares[id] != shards {
			t.Fatalf("commit-window id=%v has %d prepare spans, want %d",
				id, prepares[id], shards)
		}
	}
}

// TestShardedTraceAllShards is the regression test for the merge itself: a
// 4-shard export must contain worker spans from all four shard processes,
// not just the coordinator's 2PC skeleton.
func TestShardedTraceAllShards(t *testing.T) {
	const shards, n = 4, 32
	db, tbl := openShardedCounters(t, shards, n, WithDebugServer("127.0.0.1:0"))
	defer db.Close()

	subs := make([]IterativeTransaction, n)
	for i := range subs {
		subs[i] = &incSub{tbl: tbl, row: RowID(i), target: 2}
	}
	if _, err := db.RunML(MLRun{
		Isolation: MLOptions{Level: Asynchronous},
		Attach:    []Attachment{{Table: tbl}},
		Subs:      subs,
	}); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := trace.WriteChromeTraceMulti(&buf, db.traceSources()); err != nil {
		t.Fatal(err)
	}
	doc := parseChromeTrace(t, buf.Bytes())
	names := processNames(doc)
	spansPerProc := make(map[string]int)
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" {
			continue
		}
		spansPerProc[names[ev.Pid]]++
	}
	for _, want := range []string{"shard0", "shard1", "shard2", "shard3"} {
		if spansPerProc[want] == 0 {
			t.Fatalf("export has no spans from %s: %v", want, spansPerProc)
		}
	}
	if spansPerProc["coordinator"] == 0 {
		t.Fatalf("export has no coordinator spans: %v", spansPerProc)
	}
}

// TestMergedTraceCausalOrder is the property test over the merged
// cross-shard trace: (a) within every process the exported events are
// timestamp-ordered, (b) the coordinator's commit instants are
// timestamp-ordered consistently with their commit timestamps (the trace
// order never contradicts the oracle order), and (c) every uber-commit
// window has its full complement of per-shard prepare children, matched by
// correlation id.
func TestMergedTraceCausalOrder(t *testing.T) {
	const shards, n, runs = 4, 16, 3
	db, tbl := openShardedCounters(t, shards, n, WithDebugServer("127.0.0.1:0"))
	defer db.Close()

	for r := 0; r < runs; r++ {
		subs := make([]IterativeTransaction, n)
		for i := range subs {
			subs[i] = &incSub{tbl: tbl, row: RowID(i), target: float64(r + 1)}
		}
		if _, err := db.RunML(MLRun{
			Isolation: MLOptions{Level: Asynchronous},
			Attach:    []Attachment{{Table: tbl}},
			Subs:      subs,
		}); err != nil {
			t.Fatal(err)
		}
	}

	var buf bytes.Buffer
	if err := trace.WriteChromeTraceMulti(&buf, db.traceSources()); err != nil {
		t.Fatal(err)
	}
	doc := parseChromeTrace(t, buf.Bytes())
	names := processNames(doc)

	// (a) per-process timestamp monotonicity of the export order.
	lastTs := make(map[uint64]float64)
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" {
			continue
		}
		if ev.Ts < lastTs[ev.Pid] {
			t.Fatalf("process %q export not ts-ordered: %v after %v",
				names[ev.Pid], ev.Ts, lastTs[ev.Pid])
		}
		lastTs[ev.Pid] = ev.Ts
	}

	// (b) coordinator commit instants: export order == commit-ts order.
	// The commit timestamp rides the event's arg, so a trace that reorders
	// two uber-commits would show a decreasing arg sequence here.
	var lastCommitTS float64 = -1
	commits := 0
	prepares := make(map[float64]int)
	windows := make(map[float64]bool)
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" || names[ev.Pid] != "coordinator" {
			continue
		}
		switch ev.Name {
		case "commit":
			ts, _ := ev.Args["arg"].(float64)
			if ts <= lastCommitTS {
				t.Fatalf("commit instants out of oracle order: ts %v after %v", ts, lastCommitTS)
			}
			lastCommitTS = ts
			commits++
		case "prepare":
			id, _ := ev.Args["id"].(float64)
			prepares[id]++
		case "commit-window":
			id, _ := ev.Args["id"].(float64)
			windows[id] = true
		}
	}
	if commits != runs {
		t.Fatalf("coordinator commit instants = %d, want %d", commits, runs)
	}

	// (c) every commit window has all per-shard prepare children.
	if len(windows) != runs {
		t.Fatalf("commit windows = %d, want %d", len(windows), runs)
	}
	for id := range windows {
		if prepares[id] != shards {
			t.Fatalf("uber-commit id=%v has %d prepares, want %d", id, prepares[id], shards)
		}
	}
}

// TestQueryExplainAnalyze covers both flavours of the plan debug surface on
// a single kernel: ExplainQuery renders the planner's decisions (estimates,
// pushdown, pre-sizing) without executing, and QueryHandle.Explain after a
// run carries measured per-operator rows and time.
func TestQueryExplainAnalyze(t *testing.T) {
	const n = 24
	db, tbl := openWithCounters(t, n)
	defer db.Close()

	// Give the filter spread: Value = ID.
	subs := make([]IterativeTransaction, n)
	for i := range subs {
		subs[i] = &incSub{tbl: tbl, row: RowID(i), target: float64(i)}
	}
	if _, err := db.RunML(MLRun{
		Isolation: MLOptions{Level: Asynchronous},
		Attach:    []Attachment{{Table: tbl}},
		Subs:      subs,
	}); err != nil {
		t.Fatal(err)
	}

	p := Project(Filter(Scan(tbl), FloatCmp("Value", Gt, 2)), []string{"ID"}, Col("ID"))

	// EXPLAIN: logical plan with the pushdown annotation, no execution.
	expl, err := db.ExplainQuery(p)
	if err != nil {
		t.Fatal(err)
	}
	logical := expl.Render()
	if !strings.Contains(logical, "scan(Counter)+pushdown") {
		t.Fatalf("EXPLAIN missing pushdown annotation:\n%s", logical)
	}
	if !strings.Contains(logical, "est=") {
		t.Fatalf("EXPLAIN missing cardinality estimates:\n%s", logical)
	}
	if expl.Analyzed {
		t.Fatal("EXPLAIN (no execution) marked as analyzed")
	}

	// EXPLAIN ANALYZE: run the query, then read measured operator stats.
	h, err := db.SubmitQuery(context.Background(), QueryRun{Plan: p})
	if err != nil {
		t.Fatal(err)
	}
	rel, err := h.Wait()
	if err != nil {
		t.Fatal(err)
	}
	an := h.Explain()
	if an == nil || !an.Analyzed {
		t.Fatalf("QueryHandle.Explain after run = %+v, want analyzed tree", an)
	}
	rendered := an.Render()
	if !strings.Contains(rendered, "rows=") || !strings.Contains(rendered, "time=") {
		t.Fatalf("EXPLAIN ANALYZE missing measured stats:\n%s", rendered)
	}
	if !strings.Contains(rendered, "scan(Counter)+pushdown") {
		t.Fatalf("EXPLAIN ANALYZE missing pushdown annotation:\n%s", rendered)
	}
	// The root's measured output cardinality equals the relation's.
	if an.RowsOut != uint64(len(rel.Rows)) {
		t.Fatalf("root rows=%d, relation rows=%d", an.RowsOut, len(rel.Rows))
	}
	// The pushdown is measured, not only promised: the scan itself emits
	// just the rows that pass the filter.
	var scanOut uint64
	var walk func(n *ExplainNode)
	walk = func(n *ExplainNode) {
		if strings.HasPrefix(n.Op, "scan(Counter)") {
			scanOut = n.RowsOut
		}
		for _, k := range n.Kids {
			walk(k)
		}
	}
	walk(an)
	if scanOut != uint64(len(rel.Rows)) || scanOut >= n {
		t.Fatalf("measured scan rows=%d, want the %d filtered rows of %d", scanOut, len(rel.Rows), n)
	}
	// The measured tree nests: root project has the filtered scan below.
	if len(an.Kids) == 0 {
		t.Fatalf("analyzed tree has no children:\n%s", rendered)
	}
}

// TestShardedExplainQuery pins the sharded EXPLAIN path: the facade renders
// the same planner tree for a scattered plan, and a supervised run records
// its plan on the handle (logical flavour — a scatter has no single root
// cursor to measure).
func TestShardedExplainQuery(t *testing.T) {
	const n = 12
	db, tbl := openShardedCounters(t, 2, n)
	defer db.Close()

	p := Filter(Scan(tbl), FloatCmp("Value", Gt, 0))
	expl, err := db.ExplainQuery(p)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(expl.Render(), "scan(Counter)") {
		t.Fatalf("sharded EXPLAIN missing scan:\n%s", expl.Render())
	}

	h, err := db.SubmitQuery(context.Background(), QueryRun{Plan: p})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Wait(); err != nil {
		t.Fatal(err)
	}
	if h.Explain() == nil {
		t.Fatal("sharded QueryHandle.Explain() nil after run")
	}
}
