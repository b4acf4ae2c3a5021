GO ?= go

.PHONY: build test test-race race race-fast vet fuzz chaos-recover chaos-cluster chaos-churn scale engine-compare ci bench bench-baseline bench-compare tune tune-full plan-verify serve serve-overload examples results

# Single CI entrypoint: vet, the full test suite (incl. the fast race pass
# and the benchmark module's tests), a short run of every fuzz target, the
# fault-injection gates (supervised rank-level sweep, cluster-scale, and
# membership churn), the cluster-scale smoke gate, the tuned-plan pipeline
# (quick-budget synthesis + the beats-or-matches gate), the
# multi-tenant serving gates (steady-state sweep and the bounded-queue
# overload point), every example, then the simulated-results ledger.
ci: test fuzz chaos-recover chaos-cluster chaos-churn scale tune plan-verify serve serve-overload examples results

build:
	$(GO) build ./...

# Default gate: vet, the full test suite, the benchmark module's tests (a
# nested module, so ./... does not reach it; this compiles and tests its
# imports of the library), then a race pass over everything except
# internal/bench (whose determinism sweeps are ~10x slower under the race
# detector; use test-race for the exhaustive version).
test: vet
	$(GO) test ./...
	cd perfbench && $(GO) test ./...
	$(MAKE) race-fast

race-fast:
	$(GO) test -race $$($(GO) list ./... | grep -v internal/bench)

# The bench package's determinism sweeps run ~10x slower under the race
# detector on a small host, so give the suite room beyond the 10m default.
test-race:
	$(GO) test -race -timeout 45m ./...

# Backwards-compatible alias for test-race.
race: test-race

# Fuzz each target for 10 s (go test runs only their seed corpora). A
# failing input is saved under the target package's testdata/fuzz/, where
# go test then replays it as a seed.
fuzz:
	@set -e; for t in .:FuzzExec internal/plan:FuzzPlanLoad internal/cluster:FuzzClusterPlan \
		internal/resilient:FuzzRankPlan internal/memmodel:FuzzCacheState internal/memmodel:FuzzBufferRanges; do \
		echo "fuzz $${t#*:}"; $(GO) test -run '^$$' -fuzz "^$${t#*:}$$" -fuzztime 10s ./$${t%%:*}; \
	done

# vet covers the root module and the nested perfbench module, which
# "go vet ./..." does not reach, and fails on any Go file gofmt would
# change, listing the files.
vet:
	$(GO) vet ./...
	cd perfbench && $(GO) vet ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then echo "gofmt -l: unformatted Go files:"; echo "$$unformatted"; exit 1; fi

# Fault-injection sweep: every collective x fault plan runs under the
# resilient supervisor. Each first attempt must finish clean, fail with a
# diagnosis naming the victim rank, or be caught by self-validation. Exits
# nonzero if anything is undiagnosed or if a transient bit-flip or
# single-straggler plan fails to recover (retry / quarantine / shrink /
# algorithm fallback).
chaos-recover:
	$(GO) run ./cmd/yhcclbench -chaos-recover

# Cluster-scale fault sweep: node crashes, degraded links, stragglers and
# inter-phase corruption on 4k-16k rank clusters, each run under the
# cluster supervisor with flat-memory budgets. Exits nonzero on any
# UNDIAGNOSED outcome, unrecovered crash/degrade, or budget violation.
chaos-cluster:
	$(GO) run ./cmd/yhcclbench -chaos-cluster

# Membership-churn gates: seeded crash->heal->rejoin cycles at 4096 ranks
# (every cycle must end recovered-by-rejoin at full membership under the
# flat-memory budgets) plus capacity shrink/grow serving at 1.2x the
# saturating rate (leases drain, admitted jobs never miss deadlines).
# Exits nonzero on any violation.
chaos-churn:
	$(GO) run ./cmd/yhcclbench -churn

# Cluster-scale smoke gate: 65536- and 262144-rank event-engine sweeps must
# finish within wall-clock and per-rank allocation budgets with zero
# goroutine growth. Exits nonzero on any violation.
scale:
	$(GO) run ./cmd/yhcclbench -scale-gate

# Engine parity matrix: every shared config on both simulation cores, exit
# nonzero on any makespan divergence (also runs inside `make test` via the
# cluster package's TestEngineParity).
engine-compare:
	$(GO) run ./cmd/simbench -engine-compare

# Engine + residency micro-benchmarks (text output, for quick comparisons).
bench:
	$(GO) test ./internal/sim ./internal/memmodel -bench . -run '^$$' -benchtime 1s

# Regenerate BENCH_sim.json (micro-benchmarks + fig11a quick wall-clock).
bench-baseline:
	./scripts/bench_baseline.sh

# Re-run the micro-benchmarks and diff against the checked-in baseline;
# fails when any benchmark is >15% slower than BENCH_sim.json records.
bench-compare:
	$(GO) run ./cmd/simbench -skip-fig -compare BENCH_sim.json > /dev/null

# Scratch dir for the CI tuning smoke (the committed plans/ are full-budget;
# see tune-full).
TUNE_DIR ?= /tmp/yhccl-plans-ci

# Quick-budget plan synthesis for both evaluation machines into a scratch
# dir: exercises the whole synthesize-save-load pipeline deterministically
# at CI cost without touching the committed caches.
tune:
	$(GO) run ./cmd/yhcclbench -tune -quick -node NodeA -p 64 -plans $(TUNE_DIR)
	$(GO) run ./cmd/yhcclbench -tune -quick -node NodeB -p 48 -plans $(TUNE_DIR)

# Full-budget regeneration of the committed plan caches (plans/). The
# search is deterministic, so an unchanged cost model reproduces the
# committed files byte-for-byte.
tune-full:
	$(GO) run ./cmd/yhcclbench -tune -node NodeA -p 64
	$(GO) run ./cmd/yhcclbench -tune -node NodeB -p 48

# Multi-tenant serving gate: the default mixed stream plus a fault-seeded
# chaos tenant swept across three offered loads. Exits nonzero if any
# tenant ends UNDIAGNOSED or the aggregate p99 makespan blows its budget.
serve:
	$(GO) run ./cmd/yhcclbench -serve-gate

# Serving overload gate: the deadline-annotated mix at 1.5x the saturating
# rate under a bounded admission queue. Exits nonzero unless the queue
# demonstrably sheds and every admitted job meets its deadline.
serve-overload:
	$(GO) run ./cmd/yhcclbench -serve-overload

# Simulated-results ledger: RESULTS.txt is the quick figure sweep followed
# by the verbatim stdout of five gates, each under a `# <make target>:
# <command>` header. results rebuilds the whole file and diffs it byte for
# byte, after one sed expression masks the host-dependent B/rank/run and
# allocs/rank/run columns on both sides. A change that moves a makespan or
# a gate line regenerates the file, and the diff names the figure, series
# and size, or the gate case. Host measurements go to stderr and are not
# compared.
results:
	@set -e; dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	$(GO) build -o "$$dir/yhcclbench" ./cmd/yhcclbench; \
	"$$dir/yhcclbench" -exp all -quick > "$$dir/out"; \
	for g in chaos-recover:chaos-recover serve:serve-gate chaos-cluster:chaos-cluster \
		serve-overload:serve-overload chaos-churn:churn; do \
		printf '\n# %s: yhcclbench -%s\n' "$${g%%:*}" "$${g#*:}" >> "$$dir/out"; \
		"$$dir/yhcclbench" "-$${g#*:}" >> "$$dir/out"; \
	done; \
	mask='s/ *[0-9.]+ (B|allocs)\/rank\/run/ - \1\/rank\/run/g'; \
	sed -E "$$mask" RESULTS.txt > "$$dir/want"; \
	sed -E "$$mask" "$$dir/out" | diff "$$dir/want" -

# Build and run every example; each exits nonzero (log.Fatal or panic) on
# an error or a wrong result.
examples:
	@for d in examples/*/; do echo "example $$d"; $(GO) run ./$$d > /dev/null || exit 1; done

# Beats-or-matches gate over the committed caches: the tuned dispatch must
# match or beat every figure baseline at every quick sweep point, with at
# least one strict win. Exits nonzero on any regression.
plan-verify:
	$(GO) run ./cmd/yhcclbench -plan-verify -quick -node NodeA -p 64
	$(GO) run ./cmd/yhcclbench -plan-verify -quick -node NodeB -p 48
