# Tier-1 verification plus formatting and race detection in one
# command: `make check`.
GO ?= go

.PHONY: fmt build test race vet vet-arm64 test-kernels check soak smoke-telemetry smoke-external smoke-peachyd smoke-fleet soak-peachyd fuzz-smoke bench-e2e bench-baseline bench-compare

# Fails listing the files gofmt would rewrite (bench/ included).
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Vet the tree as arm64, so the files built only off amd64 (the
# sandpile's scalar kernel dispatch among them) keep compiling. The
# cross build needs nothing beyond the installed toolchain.
vet-arm64:
	GOARCH=arm64 $(GO) vet ./...

check: fmt build vet vet-arm64 test race

# The sandpile kernels below the best one the machine has: the
# packages that sweep synchronously, run once with the SSE2 kernel
# forced and once with the scalar one, so an AVX2 machine tests all
# three dispatch levels end to end. -count=1 because the kernel is
# chosen at package init, before `go test` starts recording the
# environment a test reads, so a cached result would not tell the
# levels apart.
KERNEL_PKGS = ./internal/sandpile/... ./internal/engine/... ./internal/ghost/...

test-kernels:
	SANDPILE_KERNEL=sse2 $(GO) test -count=1 $(KERNEL_PKGS)
	SANDPILE_KERNEL=scalar $(GO) test -count=1 $(KERNEL_PKGS)

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

# A short fuzzing budget for each fuzz target: the Time Warp kernel
# and the workflow simulator on it, each at two workers against the
# sequential kernel, the sweep, engine and ghost checkpoint decoders,
# the -faults spec parser, the PFR1 frame codec under every fleet
# protocol, the ghost and MapReduce fleet workers' frame decoders, the
# MapReduce coordinator's map-reply walker, PCK1 snapshot files, PRN1
# run files, every job kind's spec validator and the peachy runner's
# done-set payload. `go test` takes one -fuzz target per command.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzWarpCrossWorkers$$' -fuzztime 20s ./internal/des
	$(GO) test -run '^$$' -fuzz '^FuzzWarpWorkflow$$' -fuzztime 20s ./internal/wfsched
	$(GO) test -run '^$$' -fuzz '^FuzzRestoreSweep$$' -fuzztime 20s ./internal/wfsched
	$(GO) test -run '^$$' -fuzz '^FuzzRestoreEngine$$' -fuzztime 20s ./internal/engine
	$(GO) test -run '^$$' -fuzz '^FuzzFaultParse$$' -fuzztime 20s ./internal/fault
	$(GO) test -run '^$$' -fuzz '^FuzzReadFrame$$' -fuzztime 20s ./internal/net
	$(GO) test -run '^$$' -fuzz '^FuzzServeRound$$' -fuzztime 20s ./internal/ghost
	$(GO) test -run '^$$' -fuzz '^FuzzRestoreGhost$$' -fuzztime 20s ./internal/ghost
	$(GO) test -run '^$$' -fuzz '^FuzzServeTask$$' -fuzztime 20s ./internal/mapreduce
	$(GO) test -run '^$$' -fuzz '^FuzzMapReply$$' -fuzztime 20s ./internal/mapreduce
	$(GO) test -run '^$$' -fuzz '^FuzzReadSnapshot$$' -fuzztime 20s ./internal/ckpt
	$(GO) test -run '^$$' -fuzz '^FuzzReadRunFile$$' -fuzztime 20s ./internal/mapreduce
	$(GO) test -run '^$$' -fuzz '^FuzzValidateSpec$$' -fuzztime 20s ./internal/job/runners
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeDone$$' -fuzztime 20s ./internal/job/runners

# The end-to-end benchmark (bench/, run by `bash bench/run.sh`) is its
# own Go module, so the root `go test ./...` never reaches it. Vet it
# and run its tests: the per-workload oracle smoke test and the check
# that BENCHMARK.json names exactly the workloads and metrics the code
# emits (~20 s).
bench-e2e:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Record the perf trajectory future PRs diff against. -benchtime=100ms
# keeps the sweep to a couple of minutes; bump it for headline numbers.
# The output, BENCH_baseline.json, is scratch: to commit a snapshot,
# rename it to BENCH_prN.json and point BASELINE below at it.
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
# `make bench-compare BASELINE=BENCH_pr2.json`. BENCH_pr14.json is the
# current reference, recorded with bench-baseline on a 2-vCPU runner
# after the Time Warp kernel lost its per-event allocations (see
# EXPERIMENTS.md E28). BENCH_pr9.json's Time Warp rows came from a
# single-vCPU runner, so they no longer compare like for like.
BASELINE ?= BENCH_pr14.json

bench-compare:
	$(GO) test -run '^$$' -bench . -benchtime=100ms -count=$(BENCH_COUNT) ./... \
		| $(GO) run ./cmd/benchjson -go-version "$$($(GO) env GOVERSION)" -out BENCH_current.json
	$(GO) run ./cmd/benchjson -compare $(BASELINE) BENCH_current.json
