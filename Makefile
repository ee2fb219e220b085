# Developer entry points. CI (.github/workflows/ci.yml) runs the same
# targets; keep the two in sync.

GO ?= go

.PHONY: all build test race vet lint comalint staticcheck bench bench-check bench-json bench-compare smoke-serve smoke-inspect smoke-cluster attest model check

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# comalint: the in-tree protocol/determinism analyzers (see README.md
# §Static analysis & CI).
comalint:
	$(GO) run ./cmd/comalint ./...

# staticcheck is optional locally (the offline dev image does not ship
# it); CI installs and runs it unconditionally.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; \
	fi

lint: vet comalint staticcheck

bench:
	$(GO) test -bench=. -benchtime=1x -run=^$$ ./...

# bench-check vets and short-tests the comaperf benchmark. bench/ is a
# module of its own, so the root ./... patterns never build it; this
# keeps an API change in the simulator from silently breaking it.
bench-check:
	$(GO) -C bench vet ./...
	$(GO) -C bench test -short ./...

# bench-json runs the small Bench campaign and writes the
# machine-readable perf record (per-table wall time, runs, simulated
# cycles, kernel events, events/sec). CI uploads it as an artifact; the
# committed BENCH_*.json files track the record across changes.
bench-json:
	$(GO) run ./cmd/comabench -params bench -json BENCH_results.json >/dev/null
	@cat BENCH_results.json

# bench-compare reruns the quick campaign and diffs its perf record
# against the committed baseline: per-table wall time and total
# events/sec deltas, exiting non-zero on a >10% events/sec regression.
# CI runs the same comparison report-only (threshold -1).
BENCH_BASELINE ?= BENCH_2026-08-08.json
bench-compare:
	$(GO) run ./cmd/comabench -params quick -json /tmp/bench-compare.json >/dev/null
	$(GO) run ./cmd/comabench -compare $(BENCH_BASELINE) /tmp/bench-compare.json

# smoke-serve boots a comad daemon, submits the same tiny job twice,
# and asserts the serving contract: cache hit, byte-identical result
# payloads, metrics, graceful drain on SIGTERM (see README §Serving).
smoke-serve:
	bash scripts/smoke-serve.sh

# smoke-inspect exercises the live-inspection layer end to end: REPL
# trace byte-identity, the four comad inspect views mid-run, the SSE
# sample stream, per-job gauges, and inspected-vs-uninspected result
# identity (see README §Live inspection).
smoke-inspect:
	bash scripts/smoke-inspect.sh

# smoke-cluster boots a comad coordinator plus comanode workers, kills
# one mid-campaign, and asserts the fault-tolerance contract: lease
# expiry + requeue in /metrics, campaign tables byte-identical to a
# single-process run, graceful drain (see README §Cluster).
smoke-cluster:
	bash scripts/smoke-cluster.sh

# attest exercises the verifiable-receipt contract: same-seed comasim
# runs emit byte-identical receipts, `comatrace attest` verifies them
# against the result and trace artifacts, single-byte tampering fails
# naming the divergent field, and a comad daemon with a receipt key
# serves signed receipts that attest offline (see README §Execution
# receipts).
attest:
	bash scripts/smoke-attest.sh

# model runs the protocol-conformance gate: static extraction over both
# engines, exhaustive model checking, the staged runtime edge suite, and
# the four-way diff (spec vs code vs model vs runtime coverage). Exit is
# non-zero on any drift or on incomplete edge coverage (see README
# §Model checking).
model:
	$(GO) run ./cmd/comafault -edges -trace-dir /tmp/coma-edges
	$(GO) run ./cmd/comamodel diff -C . -require-full-coverage /tmp/coma-edges/*.jsonl

# check is the full tier-1 gate: everything CI enforces that can run
# offline.
check: build vet test race comalint bench-check
