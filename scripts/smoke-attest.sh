#!/usr/bin/env bash
# Execution-receipt smoke test (CI: smoke-attest job; locally: make
# attest).
#
# Exercises the verifiable-receipt contract end to end (see README
# §Execution receipts):
#   1. two same-seed comasim runs emit byte-identical receipts;
#   2. `comatrace attest` verifies the genuine receipt against the
#      result payload and the trace (exit 0);
#   3. a single flipped byte in the result, the trace, or the receipt
#      makes attest exit 1 naming the divergent field;
#   4. a comad daemon with a receipt key signs every emitted receipt;
#      the fetched receipt + result + trace attest offline under the
#      same key, and /metrics counts the verdict;
#   5. SIGTERM drains and the daemon exits 0;
#   6. a daemon restarted on the same cache dir and key serves the same
#      receipt, result and trace for the cache hit (the trace is a
#      replay: the cache dir holds no trace file).
set -euo pipefail

PORT="${SMOKE_PORT:-7743}"
BASE="http://127.0.0.1:${PORT}"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
KEY="736d6f6b652d7265636569707473"  # hex("smoke-receipts")

RUNFLAGS=(-app uniform -nodes 4 -protocol ecp -seed 11 -scale 0.001 -hz 50)
SPEC='{"app":"uniform","nodes":4,"protocol":"ecp","seed":11,"scale":0.001,"hz":50}'

echo "== build"
go build -o "$WORK/comasim" ./cmd/comasim
go build -o "$WORK/comatrace" ./cmd/comatrace
go build -o "$WORK/comad" ./cmd/comad

echo "== same-seed receipts are byte-identical"
"$WORK/comasim" "${RUNFLAGS[@]}" -receipt-out "$WORK/a.receipt.json" \
    -result-out "$WORK/a.result.json" -receipt-trace-out "$WORK/a.jsonl" >/dev/null
"$WORK/comasim" "${RUNFLAGS[@]}" -receipt-out "$WORK/b.receipt.json" \
    -result-out "$WORK/b.result.json" -receipt-trace-out "$WORK/b.jsonl" >/dev/null
cmp "$WORK/a.receipt.json" "$WORK/b.receipt.json"
cmp "$WORK/a.result.json" "$WORK/b.result.json"
cmp "$WORK/a.jsonl" "$WORK/b.jsonl"
echo "ok: receipt, result, and trace all byte-identical across runs"

echo "== genuine receipt attests"
"$WORK/comatrace" attest "$WORK/a.receipt.json" \
    -result "$WORK/a.result.json" -trace "$WORK/a.jsonl"

echo "== tampering is caught, naming the field"
# One hex digit flipped inside the recorded result digest.
python3 - "$WORK/a.receipt.json" "$WORK/tampered.receipt.json" <<'EOF'
import sys
raw = open(sys.argv[1]).read()
i = raw.index('"result_digest":"') + len('"result_digest":"')
open(sys.argv[2], "w").write(raw[:i] + ("0" if raw[i] != "0" else "1") + raw[i+1:])
EOF
if "$WORK/comatrace" attest "$WORK/tampered.receipt.json" \
    -result "$WORK/a.result.json" 2>"$WORK/err.txt"; then
    echo "attest accepted a tampered receipt"; exit 1
fi
grep -q 'result_digest' "$WORK/err.txt"
# One byte flipped in the result artifact.
printf 'X' | dd of="$WORK/b.result.json" bs=1 seek=10 conv=notrunc 2>/dev/null
if "$WORK/comatrace" attest "$WORK/a.receipt.json" \
    -result "$WORK/b.result.json" 2>"$WORK/err.txt"; then
    echo "attest accepted a tampered result"; exit 1
fi
grep -q 'result_digest' "$WORK/err.txt"
# One byte flipped in the trace artifact.
printf 'X' | dd of="$WORK/b.jsonl" bs=1 seek=100 conv=notrunc 2>/dev/null
if "$WORK/comatrace" attest "$WORK/a.receipt.json" \
    -trace "$WORK/b.jsonl" 2>"$WORK/err.txt"; then
    echo "attest accepted a tampered trace"; exit 1
fi
grep -q 'trace_digest' "$WORK/err.txt"
echo "ok: receipt, result, and trace tampering each named the divergent field"

# boot starts comad with the receipt key on the shared cache dir.
boot() {
    "$WORK/comad" serve -addr "127.0.0.1:${PORT}" -workers 2 \
        -cache-dir "$WORK/cache" -revision smoke -receipt-key "$KEY" \
        >>"$WORK/comad.log" 2>&1 &
    DAEMON=$!
    trap 'kill "$DAEMON" 2>/dev/null || true; rm -rf "$WORK"' EXIT
    for i in $(seq 1 50); do
        if curl -fsS "$BASE/healthz" >/dev/null 2>&1; then return; fi
        if [ "$i" = 50 ]; then echo "daemon never came up"; cat "$WORK/comad.log"; exit 1; fi
        sleep 0.1
    done
}

# shutdown sends SIGTERM and requires the daemon to drain and exit 0.
shutdown() {
    kill -TERM "$DAEMON"
    for i in $(seq 1 100); do
        if ! kill -0 "$DAEMON" 2>/dev/null; then break; fi
        if [ "$i" = 100 ]; then echo "daemon ignored SIGTERM"; exit 1; fi
        sleep 0.1
    done
    local status=0
    wait "$DAEMON" || status=$?
    [ "$status" = 0 ] || { echo "daemon exited $status"; cat "$WORK/comad.log"; exit 1; }
}

echo "== boot comad with a receipt key"
boot

echo "== run a job and fetch its attestation artifacts"
curl -fsS -X POST "$BASE/v1/jobs?wait=1" -d "$SPEC" >"$WORK/job.json"
JOB_ID="$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["id"])' "$WORK/job.json")"
curl -fsS "$BASE/v1/jobs/$JOB_ID/receipt" >"$WORK/d.receipt.json"
curl -fsS "$BASE/v1/jobs/$JOB_ID/result"  >"$WORK/d.result.json"
curl -fsS "$BASE/v1/jobs/$JOB_ID/trace"   >"$WORK/d.jsonl"

echo "== daemon receipt attests offline under the shared key"
"$WORK/comatrace" attest "$WORK/d.receipt.json" -key "$KEY" \
    -result "$WORK/d.result.json" -trace "$WORK/d.jsonl"
# The wrong key must fail on the signature.
if "$WORK/comatrace" attest "$WORK/d.receipt.json" -key "00ff00ff" \
    -result "$WORK/d.result.json" 2>"$WORK/err.txt"; then
    echo "attest accepted a foreign signature"; exit 1
fi
grep -q 'sig' "$WORK/err.txt"
echo "ok: signature binds the receipt to the daemon's key"

echo "== metrics count the verdict"
curl -fsS "$BASE/metrics" >"$WORK/metrics.txt"
grep -q '^coma_receipts_total{verdict="ok"} 1$' "$WORK/metrics.txt"
grep -q '^coma_receipts_total{verdict="violated"} 0$' "$WORK/metrics.txt"
echo "ok: coma_receipts_total{verdict=\"ok\"} = 1"

echo "== graceful shutdown"
shutdown

echo "== a restarted daemon replays the trace of its cache hit"
boot
curl -fsS -X POST "$BASE/v1/jobs?wait=1" -d "$SPEC" >"$WORK/job2.json"
python3 -c 'import json,sys; assert json.load(open(sys.argv[1]))["cache"] == "hit"' "$WORK/job2.json"
curl -fsS "$BASE/v1/jobs/$JOB_ID/receipt" >"$WORK/e.receipt.json"
curl -fsS "$BASE/v1/jobs/$JOB_ID/result"  >"$WORK/e.result.json"
curl -fsS "$BASE/v1/jobs/$JOB_ID/trace"   >"$WORK/e.jsonl"
cmp "$WORK/d.receipt.json" "$WORK/e.receipt.json"
cmp "$WORK/d.result.json" "$WORK/e.result.json"
cmp "$WORK/d.jsonl" "$WORK/e.jsonl"
"$WORK/comatrace" attest "$WORK/e.receipt.json" -key "$KEY" \
    -result "$WORK/e.result.json" -trace "$WORK/e.jsonl"
if ls "$WORK/cache" | grep -q '\.trace'; then
    echo "the cache dir holds a trace file:"; ls "$WORK/cache"; exit 1
fi
echo "ok: byte-identical artifacts after a restart, no trace file kept"
shutdown

# Keep the artifacts for CI upload when a destination is provided.
if [ -n "${ATTEST_ARTIFACTS:-}" ]; then
    mkdir -p "$ATTEST_ARTIFACTS"
    cp "$WORK/a.receipt.json" "$WORK/a.result.json" "$WORK/a.jsonl" \
       "$WORK/d.receipt.json" "$WORK/d.result.json" "$WORK/d.jsonl" \
       "$ATTEST_ARTIFACTS/"
fi

echo "smoke-attest: all checks passed"
