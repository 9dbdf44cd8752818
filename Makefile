# Tier-1 verification plus race detection in one command: `make check`.
GO ?= go

.PHONY: build test race vet check soak smoke-telemetry smoke-external smoke-peachyd smoke-fleet soak-peachyd bench-e2e bench-baseline bench-compare

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

check: build vet test race

# Kill–resume soak: SIGKILL each durable workload at random points,
# resume it from its snapshots, and assert the final state is
# byte-identical to a clean run. `-quick` keeps it CI-sized (<2 min);
# drop it (`go run ./cmd/chaos`) for the full-size soak.
SOAK_KILLS ?= 3
SOAK_SEED ?= 1

soak:
	$(GO) run ./cmd/chaos -quick -kills $(SOAK_KILLS) -seed $(SOAK_SEED)

# Boot a real run with -obs-listen and scrape /metrics, /healthz,
# /progress, and /events the way Prometheus / an operator would,
# asserting on the payloads. See scripts/telemetry_smoke.sh.
smoke-telemetry:
	./scripts/telemetry_smoke.sh

# Memory-capped out-of-core shuffle: a word count several times larger
# than its shuffle budget runs under a hard GOMEMLIMIT, spills, merges
# multi-pass, and must match the in-memory reference byte for byte.
# See scripts/external_smoke.sh; EXT_SMOKE_LINES scales the corpus.
smoke-external:
	./scripts/external_smoke.sh

# Boot a real peachyd job server and assert the service guarantees
# end to end: one job of each kind over HTTP, result bytes identical
# to the CLI one-shot, SSE progress events, jobs_* metrics, and
# kill -9 + restart resuming a journalled queued job. See
# scripts/peachyd_smoke.sh.
smoke-peachyd:
	./scripts/peachyd_smoke.sh

# Process-fleet transport end to end: a coordinator plus 4 worker
# subprocesses over unix sockets, two SIGKILLed mid-run; asserts
# byte-equality with the clean in-process run and a "worker rejoined"
# event on the live SSE stream. See scripts/fleet_smoke.sh.
smoke-fleet:
	./scripts/fleet_smoke.sh

# Dozens of concurrent synthetic tenants against one server with a
# tight per-tenant quota: every submission must eventually succeed,
# with 429 backpressure absorbed by client retries along the way.
# PEACHYD_SOAK_TENANTS / PEACHYD_SOAK_JOBS scale the load.
soak-peachyd:
	./scripts/peachyd_soak.sh

# The end-to-end benchmark (bench/, run by `bash bench/run.sh`) is its
# own Go module, so the root `go test ./...` never reaches it. Vet it
# and run its tests: the per-workload oracle smoke test and the check
# that BENCHMARK.json names exactly the workloads and metrics the code
# emits (~20 s).
bench-e2e:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Record the perf trajectory future PRs diff against. -benchtime=100ms
# keeps the sweep to a couple of minutes; bump it for headline numbers.
# -count=$(BENCH_COUNT) runs each benchmark several times and benchjson
# keeps the fastest — min-of-N filters scheduler noise on small/shared
# machines, where a single 100ms sample can swing well past the 10% gate.
BENCH_COUNT ?= 3

bench-baseline:
	$(GO) test -run '^$$' -bench . -benchtime=100ms -count=$(BENCH_COUNT) ./... \
		| $(GO) run ./cmd/benchjson -go-version "$$($(GO) env GOVERSION)" -out BENCH_baseline.json

# Sweep the current tree and diff it against the recorded baseline;
# fails if any benchmark regressed more than 10%. Override BASELINE to
# diff against a specific snapshot, e.g.
# `make bench-compare BASELINE=BENCH_pr2.json`. BENCH_pr9.json is the
# current reference: it adds the Time Warp planet-scale sweep
# (BenchmarkTimeWarpSweep, workers 1/2/4/8) to the PR 7 suite. The
# parallel entries were recorded on a single-vCPU runner, so they
# price optimism overhead, not speedup; see EXPERIMENTS.md E28.
BASELINE ?= BENCH_pr9.json

bench-compare:
	$(GO) test -run '^$$' -bench . -benchtime=100ms -count=$(BENCH_COUNT) ./... \
		| $(GO) run ./cmd/benchjson -go-version "$$($(GO) env GOVERSION)" -out BENCH_current.json
	$(GO) run ./cmd/benchjson -compare $(BASELINE) BENCH_current.json
