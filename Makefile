# Developer entry points. CI (.github/workflows/ci.yml) runs the same
# targets; keep the two in sync.

GO ?= go

.PHONY: all build test race vet lint comalint staticcheck bench bench-check fuzz smoke-serve smoke-inspect smoke-cluster attest model check

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

# fuzz runs each native fuzzer for ten seconds; CI calls it as one
# step. A failing input is written under the package's testdata/fuzz.
# The targets: the JSONL codec re-encodes byte-stably and its encoder
# matches the reference one; a receipt re-encodes byte-stably; a POST
# /v1/jobs body never panics, and an accepted one builds and hashes the
# same after a round trip; worker heartbeat, lease and complete bodies get only the
# protocol's statuses; the txnview fold matches its two-pass reference;
# the kernel dispatches in the (time, seq) order of a shadow model; the
# AM slot store matches a map-keyed reference; a failure plan ends in
# completion, data loss or too few nodes, never a hang or a panic.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzJSONLRoundTrip$$' -fuzztime=10s ./internal/obs
	$(GO) test -run '^$$' -fuzz '^FuzzAppendJSONLMatchesReference$$' -fuzztime=10s ./internal/obs
	$(GO) test -run '^$$' -fuzz '^FuzzReceiptRoundTrip$$' -fuzztime=10s ./internal/obs/receipt
	$(GO) test -run '^$$' -fuzz '^FuzzJobSpec$$' -fuzztime=10s ./internal/server
	$(GO) test -run '^$$' -fuzz '^FuzzWorkerBodies$$' -fuzztime=10s ./internal/server
	$(GO) test -run '^$$' -fuzz '^FuzzSummarizeMatchesReference$$' -fuzztime=10s ./internal/obs/txnview
	$(GO) test -run '^$$' -fuzz '^FuzzEngineScheduleOrder$$' -fuzztime=10s ./internal/sim
	$(GO) test -run '^$$' -fuzz '^FuzzAMMatchesReference$$' -fuzztime=10s ./internal/am
	$(GO) test -run '^$$' -fuzz '^FuzzFailurePlan$$' -fuzztime=10s ./internal/machine

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

# smoke-cluster boots a comad coordinator plus `comad node` workers, kills
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
# §Model checking). The trace directory starts empty, so a trace left by
# an earlier run cannot stand in for a scenario's coverage.
model:
	rm -rf /tmp/coma-edges
	$(GO) run ./cmd/comafault -edges -trace-dir /tmp/coma-edges
	$(GO) run ./cmd/comamodel diff -C . -require-full-coverage /tmp/coma-edges/*.jsonl

# check is the full tier-1 gate: everything CI enforces that can run
# offline. The smoke targets and attest boot daemons on localhost only.
check: build vet test race comalint bench-check fuzz model smoke-serve smoke-inspect smoke-cluster attest
