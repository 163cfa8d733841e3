package introspect

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"db4ml/internal/obs"
	"db4ml/internal/trace"
)

func scrape(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func testObserver() *obs.Observer {
	o := obs.New()
	o.BeginRun(2)
	o.Inc(0, obs.Commits)
	o.Inc(1, obs.Commits)
	o.Inc(0, obs.Executions)
	o.Inc(0, obs.UserRollbacks)
	o.RecordLatency(0, obs.AttemptLatency, 1500)
	o.RecordLatency(1, obs.AttemptLatency, 90_000)
	o.RecordLatency(0, obs.JobCommitLatency, 2_000_000)
	o.ObserveLive(5)
	o.ObserveQueueDepth(3)
	return o
}

func TestServerEndpoints(t *testing.T) {
	agg := NewAggregator()
	agg.Attach(testObserver())
	tr := trace.New(2, 64)
	tr.Span(0, trace.KindJob, 1, 0, tr.Now(), 1000)
	tr.Instant(1, trace.KindSteal, 1, 0)

	jobs := func() []JobInfo {
		return []JobInfo{
			NewJobInfo(1, "pagerank", "running", 1, 5, 10, time.Now().Add(-time.Second), 5*time.Second),
			NewJobInfo(2, "sgd", "done", 2, 0, 8, time.Now().Add(-2*time.Second), 0),
		}
	}
	s, err := Start(Config{Addr: "127.0.0.1:0", Metrics: agg.Snapshot, Jobs: jobs, Sources: []trace.Source{{Name: "kernel", Tracer: tr}}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	base := "http://" + s.Addr()

	// /metrics: Prometheus text with the documented family names.
	code, body := scrape(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	for _, want := range []string{
		"db4ml_commits_total 2",
		"db4ml_executions_total 1",
		"db4ml_rollbacks_total 1",
		"db4ml_live_subs 5",
		"db4ml_queue_depth 3",
		"db4ml_jobs_running 1",
		"db4ml_jobs_tracked 2",
		"db4ml_trace_events 2",
		"# TYPE db4ml_attempt_latency_seconds histogram",
		`db4ml_attempt_latency_seconds_bucket{le="+Inf"} 2`,
		"db4ml_attempt_latency_seconds_count 2",
		"db4ml_job_commit_latency_seconds_count 1",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}
	checkPrometheusShape(t, body)

	// /debug/jobs: the job table as JSON.
	code, body = scrape(t, base+"/debug/jobs")
	if code != http.StatusOK {
		t.Fatalf("/debug/jobs status %d", code)
	}
	var rows []JobInfo
	if err := json.Unmarshal([]byte(body), &rows); err != nil {
		t.Fatalf("/debug/jobs not valid JSON: %v\n%s", err, body)
	}
	if len(rows) != 2 || rows[0].Label != "pagerank" || rows[0].State != "running" {
		t.Fatalf("job table = %+v", rows)
	}
	if rows[0].DeadlineRemainingMillis == nil {
		t.Fatal("deadline-bounded job missing remaining time")
	}
	if rows[1].DeadlineRemainingMillis != nil {
		t.Fatal("unbounded job reports a deadline")
	}

	// /debug/trace: valid Chrome trace_event JSON.
	code, body = scrape(t, base+"/debug/trace")
	if code != http.StatusOK {
		t.Fatalf("/debug/trace status %d", code)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/debug/trace not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("/debug/trace empty")
	}

	// /debug/pprof: mounted and answering.
	code, _ = scrape(t, base+"/debug/pprof/")
	if code != http.StatusOK {
		t.Fatalf("/debug/pprof/ status %d", code)
	}

	// index page links the endpoints.
	code, body = scrape(t, base+"/")
	if code != http.StatusOK || !strings.Contains(body, "/metrics") {
		t.Fatalf("index status %d body %q", code, body)
	}
}

// checkPrometheusShape validates the text exposition line-by-line: every
// sample line must parse as `name{labels} value` with a numeric value, no
// duplicate series, and histogram bucket counts must be non-decreasing.
func checkPrometheusShape(t *testing.T, body string) {
	t.Helper()
	seen := map[string]bool{}
	var lastBucketFam string
	var lastBucketCum float64
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("unparseable metrics line %q", line)
		}
		series, val := line[:sp], line[sp+1:]
		if seen[series] {
			t.Fatalf("duplicate series %q", series)
		}
		seen[series] = true
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("non-numeric value in %q: %v", line, err)
		}
		if i := strings.Index(series, "_bucket{"); i >= 0 {
			fam := series[:i]
			if fam != lastBucketFam {
				lastBucketFam, lastBucketCum = fam, 0
			}
			if f < lastBucketCum {
				t.Fatalf("bucket counts decrease in %s: %g < %g", series, f, lastBucketCum)
			}
			lastBucketCum = f
		}
	}
}

// TestAggregatorMonotoneAcrossJobs: totals never go backwards as jobs
// complete and new ones attach — the property a Prometheus counter needs.
func TestAggregatorMonotoneAcrossJobs(t *testing.T) {
	agg := NewAggregator()

	o1 := testObserver()
	agg.Attach(o1)
	s1 := agg.Snapshot()
	if s1.Cumulative.Commits != 2 {
		t.Fatalf("live commits = %d, want 2", s1.Cumulative.Commits)
	}

	agg.Complete(o1)
	s2 := agg.Snapshot()
	if s2.Cumulative.Commits != 2 || s2.Latencies.Attempt.Count != 2 {
		t.Fatalf("folded totals = %+v", s2.Cumulative)
	}

	// A second job's observer stacks on top of the folded base.
	o2 := obs.New()
	o2.BeginRun(1)
	o2.Inc(0, obs.Commits)
	o2.RecordLatency(0, obs.AttemptLatency, 500)
	agg.Attach(o2)
	s3 := agg.Snapshot()
	if s3.Cumulative.Commits != 3 || s3.Latencies.Attempt.Count != 3 {
		t.Fatalf("stacked totals = commits %d, attempts %d", s3.Cumulative.Commits, s3.Latencies.Attempt.Count)
	}
	agg.Complete(o2)
	s4 := agg.Snapshot()
	if s4.Cumulative.Commits != 3 || s4.Latencies.Attempt.Count != 3 {
		t.Fatalf("final totals = %+v", s4.Cumulative)
	}

	// A retried observer folds its cross-attempt Cumulative, not just the
	// last attempt.
	o3 := obs.New()
	o3.BeginRun(1)
	o3.Inc(0, obs.Commits)
	o3.BeginRun(1) // retry archives attempt 1
	o3.Inc(0, obs.Commits)
	agg.Complete(o3)
	if s := agg.Snapshot(); s.Cumulative.Commits != 5 {
		t.Fatalf("retried fold lost attempts: commits = %d, want 5", s.Cumulative.Commits)
	}
}

func TestFormatLe(t *testing.T) {
	cases := map[int64]string{
		1023:          "0.000001023",
		1<<20 - 1:     "0.001048575",
		1<<30 - 1:     "1.073741823",
		1<<40 - 1:     "1099.511627775",
		math.MaxInt64: "+Inf",
	}
	for nanos, want := range cases {
		if got := formatLe(nanos); got != want {
			t.Fatalf("formatLe(%d) = %q, want %q", nanos, got, want)
		}
	}
}

func TestMetricsWithNilSources(t *testing.T) {
	s, err := Start(Config{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	code, body := scrape(t, fmt.Sprintf("http://%s/metrics", s.Addr()))
	if code != http.StatusOK || !strings.Contains(body, "db4ml_commits_total 0") {
		t.Fatalf("nil-source metrics: status %d\n%s", code, body)
	}
	code, body = scrape(t, fmt.Sprintf("http://%s/debug/jobs", s.Addr()))
	if code != http.StatusOK || strings.TrimSpace(body) != "[]" {
		t.Fatalf("nil-source jobs: status %d body %q", code, body)
	}
	code, body = scrape(t, fmt.Sprintf("http://%s/debug/trace", s.Addr()))
	if code != http.StatusOK || !strings.Contains(body, "traceEvents") {
		t.Fatalf("nil-source trace: status %d body %q", code, body)
	}
}
