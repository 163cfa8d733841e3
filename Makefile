# Tier-1 gate: everything `make check` runs must stay green.
.PHONY: check build vet test test-race-short bench-vet bench-smoke chaos fuzz resilience staticcheck obs gc plan shard recovery

check: build vet test test-race-short bench-vet

build:
	go build ./...

vet:
	go vet ./...

test:
	go test ./...

# Race gate over the concurrency-bearing kernel packages. -short skips the
# long all-experiment sweeps; the dedicated queue/storage/exec/itx stress
# tests all still run.
test-race-short:
	go test -race -short ./internal/...

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

# Seeded fault-injection sweep: 8 fault schedules per isolation level,
# every recorded history checked against the isolation contracts. A failing
# seed is replayable with `go test ./internal/check -run TestInvariantSweep`
# or check.RunTrial directly.
chaos:
	go run ./cmd/db4ml-bench -exp chaos -seeds 8

# Chaos-backed supervision gate: every panic-containment, watchdog,
# deadline, retry, cancellation, and admission test — single-kernel and
# sharded — under the race detector, then one quick pass of the resilience
# experiment (burst of flaky/spinning jobs against a live fault injector,
# oracle-checked).
resilience:
	go test -race -timeout 5m -run 'Panic|Watchdog|Stall|Deadline|Retry|Cancel|Overload|Admission|Degradation|ChaosRetry|GoroutineLeak' . ./internal/exec ./internal/resilience
	go run ./cmd/db4ml-bench -exp resilience -quick

# Version-GC gate: the chain-walk-during-Prune regression and every
# registry/reclaimer/facade GC test under the race detector, the GC-enabled
# chaos sweep, then a quick pass of the soak experiment (retained-version
# flatness is asserted inside the experiment itself). The committed
# BENCH_GC.json comes from the full run:
#   go run ./cmd/db4ml-bench -exp gc -benchjson BENCH_GC.json
gc:
	go test -race -run 'TestPrune|SafeWatermark|OverEagerWatermark|TombstoneChurn|CommitAndAbortBothUnpin' ./internal/storage ./internal/txn ./internal/gc
	go test -race -run 'TestSoakVersionCountFlat|WithVersionGC|PruneNow' .
	go test -race -run 'TestInvariantSweepWithGC' ./internal/check
	go run ./cmd/db4ml-bench -exp gc -quick

# Query-plan gate: the plan package (rewrite rules, streaming executor,
# iterate node, randomized streamed==materialized property test) and the
# facade query tests under the race detector, the scan-pin conviction
# tests, then a quick pass of the plan experiment (output equality across
# all strategies and the speedup floor are asserted inside the experiment).
# The committed BENCH_PLAN.json comes from the full run:
#   go run ./cmd/db4ml-bench -exp plan -runs 5 -benchjson BENCH_PLAN.json
plan:
	go test -race ./internal/plan
	go test -race -run 'Query|PageRankViaIterate|IterateComposes' .
	go test -race -run 'TestTableScanPinsSnapshotAgainstGC|TestSlowScanSurvivesAggressiveReclaimer' ./internal/relational
	go run ./cmd/db4ml-bench -exp plan -quick

# Sharding gate: the shard package (router/table/coordinator/rendezvous,
# including the Route-vs-Repartition and Submit-vs-Close race tests) and
# the sharded facade tests under the race detector, the cross-shard
# invariant sweep (2PC atomicity + cross-shard staleness checkers over 36+
# chaos schedules) with its conviction tests, the scatter-gather plan
# tests, then a quick pass of the shard experiment (the identical-result
# and atomic-commit invariants are asserted inside the experiment). The
# committed BENCH_SHARD.json comes from the full run:
#   go run ./cmd/db4ml-bench -exp shard -runs 5 -benchjson BENCH_SHARD.json
shard:
	go test -race ./internal/shard
	go test -race -run 'TestSharded' .
	go test -race -run 'TestShardInvariantSweep|TestShardFaultFreeControl|TestCheckerCatchesSplitBrainCommit|TestCheckerCatchesBrokenCrossShardStaleness' ./internal/check
	go test -race -run 'TestScatterGather' ./internal/plan
	go run ./cmd/db4ml-bench -exp shard -quick

# Durability gate: the WAL and checkpoint packages (framing, group commit,
# torn-tail truncation, fuzzy-checkpoint round trips) and the facade
# durability tests under the race detector, then the kill-point recovery
# harness — every crash point × 1/2/4 shards checked against the
# committed-exactly-or-absent contract, plus the planted-violation
# conviction tests — and a quick pass of the recovery experiment. The
# committed BENCH_RECOVERY.json comes from the full run:
#   go run ./cmd/db4ml-bench -exp recovery -runs 2 -benchjson BENCH_RECOVERY.json
recovery:
	go test -race ./internal/wal ./internal/checkpoint
	go test -race -run 'TestDurability|TestCheckpoint|TestInstallReplay|TestCrashPoint|TestWALSync' .
	go test -race ./internal/crashsim
	go test -race -run 'TestRecovery' ./internal/check
	go run ./cmd/db4ml-bench -exp recovery -quick

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
