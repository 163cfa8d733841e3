# Tier-1 gate: everything `make check` runs must stay green.
.PHONY: check build vet test test-race-short bench-vet bench-smoke fuzz staticcheck obs

check: build vet test test-race-short bench-vet

build:
	go build ./...

vet:
	go vet ./...

test:
	go test ./...

# The one race gate: every package, the facade included, under the race
# detector. -short skips the long all-experiment sweep; the supervision,
# version-GC, plan, shard and recovery tests and the queue/storage/exec/itx
# stress tests all still run.
test-race-short:
	go test -race -short ./...

# The benchmark (bench/) is its own module, so the root build, vet and test
# never compile it; vetting it here keeps a facade API change from breaking
# the benchmark unnoticed.
bench-vet:
	cd bench && go vet ./...

# One fast pass over the benchmark harness to catch bit-rot without a full
# benchmark run.
bench-smoke:
	go test -bench=BenchmarkObserverOverhead -benchtime=1x -run '^$$' .

# Observability gate: the zero-alloc contracts of the disabled hot paths
# (enforced as tests), the observability test surface under the race
# detector — including the cluster-wide surface (the sharded debug server
# end-to-end test scrapes /debug/shards, /debug/query, and the merged
# /debug/trace off a live 4-shard run) — then the overhead benchmarks for
# eyeballing against the <2% budget documented in EXPERIMENTS.md.
obs:
	go vet ./internal/obs ./internal/trace ./internal/introspect
	go test -race ./internal/obs ./internal/trace ./internal/introspect
	go test -race -run 'Observability|DebugServer|LatenciesAndTrace|BarrierSkew|StampsNothing|MergedTrace|ShardedTraceAllShards|ExplainAnalyze|ShardedExplain' . ./internal/exec
	go test -bench 'ObserverOverhead|TraceOverhead|HistogramOverhead|DistTraceOverhead|WALMetricsOverhead' -benchtime 20x -run '^$$' .

# Optional deeper static analysis; no-op when staticcheck is not on PATH
# (the container image does not bake it in, CI installs it).
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; else echo "staticcheck not installed; skipping"; fi

# Short coverage-guided fuzz pass over the storage payload codec, the
# iterative-record install/read seqlock, the WAL replay path, and the
# checkpoint loader. The committed corpora under */testdata/fuzz seed all
# four targets.
fuzz:
	go test -fuzz '^FuzzPayloadRoundTrip$$' -fuzztime 30s -run '^$$' ./internal/storage
	go test -fuzz '^FuzzRecordInstall$$' -fuzztime 30s -run '^$$' ./internal/storage
	go test -fuzz '^FuzzWALReplay$$' -fuzztime 30s -run '^$$' ./internal/wal
	go test -fuzz '^FuzzCheckpointLoad$$' -fuzztime 30s -run '^$$' ./internal/checkpoint
