// Package introspect is the kernel's live debug server: an opt-in HTTP
// endpoint (db4ml.WithDebugServer / db4ml-bench -http) that exposes what the
// engine is doing right now — Prometheus-format metrics built from the
// telemetry layer (internal/obs), a live job table, the span tracer's ring
// buffer as a Chrome trace download (internal/trace), and net/http/pprof.
//
// The server is deliberately dependency-free: the Prometheus text
// exposition format is plain text rendered by hand, and the trace download
// is the tracer's own Chrome trace_event export. Nothing here touches the
// hot path — handlers pull a snapshot when scraped, so an idle server costs
// one parked goroutine.
package introspect

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"db4ml/internal/obs"
	"db4ml/internal/trace"
)

// JobInfo is one row of the /debug/jobs table.
type JobInfo struct {
	ID    uint64 `json:"id"`
	Label string `json:"label"`
	// State is "running", "done", or "failed: <error>".
	State string `json:"state"`
	// Attempt is the 1-based submission attempt under the facade's
	// abort-retry policy.
	Attempt int `json:"attempt"`
	// Live and Total report iteration progress: sub-transactions not yet
	// retired out of the number submitted.
	Live  int64 `json:"live"`
	Total int64 `json:"total"`
	// ElapsedMillis is the job's wall-clock age (run time, once finished).
	ElapsedMillis int64 `json:"elapsed_ms"`
	// DeadlineRemainingMillis is the time left in the job's wall-clock
	// budget; negative when expired, absent when unbounded.
	DeadlineRemainingMillis *int64 `json:"deadline_remaining_ms,omitempty"`
	// CommitTS is the uber-transaction's commit timestamp: 0 while the job
	// runs, and forever if it aborted.
	CommitTS uint64 `json:"commit_ts,omitempty"`
	// Shard is the shard this row reports on. Sharded databases emit one
	// row per (job, shard); single-kernel rows omit it.
	Shard *int `json:"shard,omitempty"`
}

// QueryInfo is one row of the /debug/query table: a recent query execution
// with its rendered EXPLAIN tree (EXPLAIN ANALYZE — measured per-operator
// rows and time — when the execution collected operator stats; the
// planner's EXPLAIN otherwise, e.g. scattered queries).
type QueryInfo struct {
	ID    uint64 `json:"id"`
	State string `json:"state"`
	// Rows is the materialized result size.
	Rows          int   `json:"rows"`
	Attempts      int   `json:"attempts"`
	ElapsedMillis int64 `json:"elapsed_ms"`
	// Explain is the rendered operator tree, one indented line per operator.
	Explain string `json:"explain,omitempty"`
}

// ShardInfo is one row of the /debug/shards table: one shard's live
// telemetry totals, worker count, stable watermark, and trace-ring
// population.
type ShardInfo struct {
	Shard       int    `json:"shard"`
	Workers     int    `json:"workers"`
	TraceEvents int    `json:"trace_events"`
	Stable      uint64 `json:"stable"`
	// Counters are the shard's cumulative counter totals (completed runs
	// folded plus live runs).
	Counters obs.CounterTotals `json:"counters"`
}

// Config wires a Server to the process's observability state. Every field
// except Addr is optional: a nil source renders as absent rather than
// failing the endpoint.
type Config struct {
	// Addr is the listen address, e.g. ":6060" or "127.0.0.1:0".
	Addr string
	// Metrics returns the snapshot /metrics renders; typically an
	// Aggregator's Snapshot method.
	Metrics func() obs.Snapshot
	// Jobs returns the live job table for /debug/jobs.
	Jobs func() []JobInfo
	// Queries returns the recent-query table for /debug/query; nil renders
	// an empty list.
	Queries func() []QueryInfo
	// Shards returns the per-kernel table for /debug/shards; nil renders an
	// empty list.
	Shards func() []ShardInfo
	// Sources lists the ring-buffer tracers /debug/trace merges into one
	// Chrome trace, one named process per source (one kernel: the kernel;
	// a cluster: the coordinator plus every shard); nil serves an empty
	// trace.
	Sources []trace.Source
}

// Server is a running debug HTTP server. Construct with Start; stop with
// Close.
type Server struct {
	lis net.Listener
	srv *http.Server
}

// Start binds cfg.Addr and serves the debug endpoints in a background
// goroutine. The returned server reports its bound address via Addr (useful
// with a ":0" config).
func Start(cfg Config) (*Server, error) {
	lis, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("introspect: listen %s: %w", cfg.Addr, err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/", cfg.handleIndex)
	mux.HandleFunc("/metrics", cfg.handleMetrics)
	mux.HandleFunc("/debug/jobs", cfg.handleJobs)
	mux.HandleFunc("/debug/query", cfg.handleQueries)
	mux.HandleFunc("/debug/shards", cfg.handleShards)
	mux.HandleFunc("/debug/trace", cfg.handleTrace)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s := &Server{lis: lis, srv: &http.Server{Handler: mux}}
	go s.srv.Serve(lis) //nolint:errcheck // Serve always returns on Close
	return s, nil
}

// Addr returns the server's bound address (host:port).
func (s *Server) Addr() string { return s.lis.Addr().String() }

// Close stops the server and releases the listener.
func (s *Server) Close() error { return s.srv.Close() }

func (cfg Config) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprint(w, `<!DOCTYPE html><title>db4ml debug</title><h1>db4ml debug server</h1><ul>
<li><a href="/metrics">/metrics</a> — Prometheus text exposition</li>
<li><a href="/debug/jobs">/debug/jobs</a> — live job table (JSON)</li>
<li><a href="/debug/query">/debug/query</a> — recent queries with EXPLAIN ANALYZE trees (JSON)</li>
<li><a href="/debug/shards">/debug/shards</a> — per-shard telemetry breakdown (JSON)</li>
<li><a href="/debug/trace">/debug/trace</a> — Chrome trace_event JSON, all shards merged (open in Perfetto / about:tracing)</li>
<li><a href="/debug/pprof/">/debug/pprof/</a> — Go runtime profiles</li>
</ul>`)
}

func (cfg Config) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var snap obs.Snapshot
	if cfg.Metrics != nil {
		snap = cfg.Metrics()
	}
	var jobs []JobInfo
	if cfg.Jobs != nil {
		jobs = cfg.Jobs()
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	events := 0
	for _, s := range cfg.Sources {
		events += s.Tracer.Len()
	}
	writePrometheus(w, snap, jobs, events)
}

func (cfg Config) handleQueries(w http.ResponseWriter, r *http.Request) {
	queries := []QueryInfo{}
	if cfg.Queries != nil {
		if q := cfg.Queries(); q != nil {
			queries = q
		}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(queries) //nolint:errcheck // best-effort write to the client
}

func (cfg Config) handleShards(w http.ResponseWriter, r *http.Request) {
	shards := []ShardInfo{}
	if cfg.Shards != nil {
		if s := cfg.Shards(); s != nil {
			shards = s
		}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(shards) //nolint:errcheck // best-effort write to the client
}

func (cfg Config) handleJobs(w http.ResponseWriter, r *http.Request) {
	jobs := []JobInfo{}
	if cfg.Jobs != nil {
		if j := cfg.Jobs(); j != nil {
			jobs = j
		}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(jobs) //nolint:errcheck // best-effort write to the client
}

func (cfg Config) handleTrace(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", `attachment; filename="db4ml-trace.json"`)
	trace.WriteChromeTraceMulti(w, cfg.Sources) //nolint:errcheck // best-effort write
}

// NewJobInfo assembles one job-table row from the values the facade tracks.
func NewJobInfo(id uint64, label, state string, attempt int, live, total int64, started time.Time, deadline time.Duration) JobInfo {
	info := JobInfo{
		ID: id, Label: label, State: state, Attempt: attempt,
		Live: live, Total: total,
		ElapsedMillis: time.Since(started).Milliseconds(),
	}
	if deadline > 0 {
		rem := (deadline - time.Since(started)).Milliseconds()
		info.DeadlineRemainingMillis = &rem
	}
	return info
}
