# Tier-1 gate: everything `make check` runs must stay green.
.PHONY: check fmt build vet test test-race-short bench-vet bench-test bench-smoke perf fuzz staticcheck obs flake

check: fmt build vet test test-race-short bench-vet bench-test

# Fails when any Go file is not gofmt-formatted, and names the files.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

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

# The benchmark module's own tests (its workload set-up and metric code), a
# few seconds.
bench-test:
	cd bench && go test ./...

# One fast pass over the benchmark harness to catch bit-rot without a full
# benchmark run.
bench-smoke:
	go test -bench=BenchmarkObserverOverhead -benchtime=1x -run '^$$' .

# The end-to-end benchmark (BENCHMARK.json) at seed 1, every workload: first
# the end-to-end metrics, then a traced run for the per-layer ladder. One
# JSON line per workload and run; minutes, not seconds.
perf:
	bash bench/run.sh --seed 1
	bash bench/run.sh --seed 1 --trace 1

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

# Flake hunt: the whole suite twenty times, the internal packages five
# times under the race detector, and the benchmark module's tests twenty
# times. A test that fails here once is nondeterministic. Too slow for every
# change; CI runs it nightly.
flake:
	go test -count=20 ./...
	go test -race -count=5 ./internal/...
	cd bench && go test -count=20 ./...

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
