# Build/verify entry points. CI (.github/workflows/ci.yml) runs the same
# commands; `make bench` regenerates the committed benchmark report and
# `make sweep-golden` the committed scenario golden files. Run
# `make help` for a target overview.
#
# Benchmark gating (the CI bench-gate job runs `make bench-gate`;
# OPERATIONS.md §7 is the full waiver / re-baseline runbook):
#   - BENCH_BASELINE is the committed report the gate diffs against.
#   - A legitimate perf change (or new hardware) re-baselines with
#     `make bench` and commits the updated $(BENCH_BASELINE).
#   - To waive a known-noisy benchmark temporarily, pass a per-benchmark
#     tolerance: make bench-gate BENCH_TOL_FOR=sim/E1-quick/par1=0.6
#   - Never edit the baseline JSON by hand; it carries the machine
#     fingerprint of the run that produced it.
GO ?= go

SCENARIOS := e2-monomial-singletons e3-poly-network braess-combined fluid-vs-exact churn-recovery quickstart

BENCH_BASELINE ?= BENCH_PR21.json
# Short per-benchmark run time for the CI gate; `make bench` uses the
# default 1s for the committed baseline.
BENCH_GATE_TIME ?= 0.3s
# The ns/op tolerance is deliberately wide: the reference container is a
# steal-prone shared 1-vCPU VM, and back-to-back identical-binary gate
# runs have been observed to swing individual rows ±40% (different rows
# each run — host noise, not code). +50% still catches a real blow-up,
# and the gate's hard teeth are machine-independent anyway: any allocs/op
# growth on a zero-alloc baseline fails regardless of tolerance. The
# baseline itself is recorded at cmd/bench's default -benchtime (1s, as
# `make bench` passes none); the 0.3s gate run samples a shorter window,
# hence the headroom.
BENCH_TOL ?= 0.5
# The million-player rounds move tens of megabytes per op and the par2
# end-to-end rows timeshare two goroutines on one vCPU; both have been
# observed past +100% run to run, so they gate one-sidedly generous.
BENCH_TOL_FOR ?= engine/step/heavy-n1048576/w1=1.0,engine/step/heavy-n1048576/w2=1.2,sim/E1-quick/par2=1.2,runner/spec-8reps-n2000/par2=1.0
# The instrumented-vs-bare overhead gate (`bench overhead`): interleaved
# trial pairs, gating the MINIMUM instrumented/bare ratio — see cmd/bench's
# doc comment for why the minimum is the honest statistic on this host.
OVERHEAD_TOL ?= 0.05
OVERHEAD_TRIALS ?= 5

# Profile-guided optimization: default.pgo is a committed CPU profile of
# the bench suite (regenerate with `make pgo`). Every bench build — the
# baseline, the gate, and the history's subject — compiles with it, so the
# gate measures the binary users of `-pgo` actually get. When the profile
# is absent (fresh clone mid-rebase, etc.) the flag drops out and builds
# proceed unguided.
PGO_FLAG = $(if $(wildcard default.pgo),-pgo=default.pgo,)

.PHONY: all build test test-short race vet fmt bench bench-gate \
        bench-history pgo experiments examples sweep-quick sweep-golden \
        sweep-check serve-smoke help

all: build test

help: ## Show this help.
	@echo "targets:"
	@awk -F':.*## ' '/^[a-z-]+:.*## /{printf "  %-14s %s\n", $$1, $$2}' $(MAKEFILE_LIST)

build: ## go build ./...
	$(GO) build ./...

test: ## go test ./...
	$(GO) test ./...

test-short: ## go test -short ./...
	$(GO) test -short ./...

race: ## go test -race -short ./...
	$(GO) test -race -short ./...

vet: ## go vet ./...
	$(GO) vet ./...

fmt: ## Fail if any file needs gofmt.
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

bench: ## Regenerate the committed benchmark baseline (BENCH_PR21.json), built with the committed PGO profile.
	$(GO) run $(PGO_FLAG) ./cmd/bench -out $(BENCH_BASELINE)

bench-gate: ## Run the short bench suite (PGO build) and diff it against the committed baseline (CI perf gate).
	$(GO) run $(PGO_FLAG) ./cmd/bench -benchtime $(BENCH_GATE_TIME) -quiet -out bench-ci.json
	$(GO) run ./cmd/bench compare -tol $(BENCH_TOL) $(if $(BENCH_TOL_FOR),-tol-for $(BENCH_TOL_FOR)) $(BENCH_BASELINE) bench-ci.json
	$(GO) run $(PGO_FLAG) ./cmd/bench overhead -trials $(OVERHEAD_TRIALS) -tol $(OVERHEAD_TOL) -benchtime $(BENCH_GATE_TIME)

bench-history: ## Render the committed BENCH_PR*.json baselines as one per-benchmark trajectory table.
	$(GO) run ./cmd/bench history

pgo: ## Regenerate the committed PGO profile (default.pgo) by profiling the bench suite.
	$(GO) run ./cmd/bench -benchtime $(BENCH_GATE_TIME) -quiet -cpuprofile default.pgo -out bench-pgo.json

experiments: ## Regenerate all experiment tables in quick mode.
	$(GO) run ./cmd/experiments -quick

examples: ## Build and run every example program and imitsim on the quickstart spec (the CI smoke test).
	@for d in examples/*/; do \
		case $$d in examples/scenarios/) continue;; esac; \
		echo "== $$d"; \
		$(GO) run ./$$d >/dev/null || exit 1; \
	done
	@echo "== cmd/imitsim -spec examples/scenarios/quickstart.json"
	@$(GO) run ./cmd/imitsim -spec examples/scenarios/quickstart.json >/dev/null

sweep-quick: ## Run the example scenario specs in quick mode (smoke).
	@for s in $(SCENARIOS); do \
		echo "== $$s"; \
		$(GO) run ./cmd/sweep -spec examples/scenarios/$$s.json -quick -format text || exit 1; \
	done

# The golden files pin the sweep output byte-for-byte: CI regenerates
# them (sweep-check) and fails on any diff. After an intentional change
# to a spec or to the aggregation/formatting path, run `make
# sweep-golden` and commit the updated examples/scenarios/golden/*.csv.
sweep-golden: ## Regenerate the committed golden CSVs for the example specs.
	@for s in $(SCENARIOS); do \
		$(GO) run ./cmd/sweep -spec examples/scenarios/$$s.json -quick \
			-out examples/scenarios/golden/$$s.csv >/dev/null || exit 1; \
		echo "wrote examples/scenarios/golden/$$s.csv"; \
	done

serve-smoke: ## End-to-end daemon check: submit, kill mid-run, resume, byte-compare vs cmd/sweep (CI).
	sh scripts/serve-smoke.sh

sweep-check: sweep-golden ## Regenerate goldens and fail on any diff (CI).
	git diff --exit-code examples/scenarios/golden
	@untracked=$$(git status --porcelain examples/scenarios/golden | grep '^??' || true); \
	if [ -n "$$untracked" ]; then \
		echo "uncommitted golden files:"; echo "$$untracked"; exit 1; \
	fi
