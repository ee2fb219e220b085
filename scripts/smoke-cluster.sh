#!/usr/bin/env bash
# Cluster smoke test (CI: smoke-cluster job; locally: make smoke-cluster).
#
# Boots a comad coordinator plus `comad node` workers and kills one mid-
# campaign, asserting the cluster's fault-tolerance contract end to end:
#   1. a comabench campaign fans out to the cluster via -remote;
#   2. SIGKILLing the only worker while it holds a lease trips the
#      liveness sweep: the worker is marked dead, its lease expires and
#      the job is requeued (all three visible in /metrics);
#   3. replacement workers absorb the queue and the campaign completes;
#   4. the campaign table is byte-identical to a single-process run;
#   5. SIGTERM drains one replacement (exit 0);
#   6. SIGTERM on the coordinator, with a backlog queued behind the last
#      single-slot worker, finishes every job (all done, exit 0), after
#      which the last worker leaves on its own (exit 0).
set -euo pipefail

PORT="${SMOKE_PORT:-7743}"
BASE="http://127.0.0.1:${PORT}"
WORK="$(mktemp -d)"
PIDS=()
cleanup() {
    for pid in "${PIDS[@]}"; do kill -9 "$pid" 2>/dev/null || true; done
    rm -rf "$WORK"
}
trap cleanup EXIT

echo "== build"
go build -o "$WORK/comad" ./cmd/comad
go build -o "$WORK/comabench" ./cmd/comabench

echo "== single-process baseline"
"$WORK/comabench" -params bench -only fig3 -workers 1 >"$WORK/serial.txt"

echo "== boot coordinator (cluster mode, 1s lease TTL, 60s drain bound)"
"$WORK/comad" serve -addr "127.0.0.1:${PORT}" -cluster -lease-ttl 1s -drain-timeout 60s \
    -revision smoke >"$WORK/comad.log" 2>&1 &
COORD=$!
PIDS+=("$COORD")
for i in $(seq 1 50); do
    if curl -fsS "$BASE/healthz" >/dev/null 2>&1; then break; fi
    if [ "$i" = 50 ]; then echo "coordinator never came up"; cat "$WORK/comad.log"; exit 1; fi
    sleep 0.1
done

# wait_worker NAME FIELD THRESHOLD: poll GET /v1/workers until the named
# worker reports field >= threshold (e.g. a lease held, a job running).
wait_worker() {
    for i in $(seq 1 200); do
        curl -fsS "$BASE/v1/workers" >"$WORK/fleet.json" || true
        if python3 - "$WORK/fleet.json" "$1" "$2" "$3" <<'EOF'
import json, sys
path, name, field, want = sys.argv[1:5]
try:
    fleet = json.load(open(path)).get("workers") or []
except (OSError, ValueError):
    sys.exit(1)
ok = any(w["name"] == name and w[field] >= int(want) for w in fleet)
sys.exit(0 if ok else 1)
EOF
        then return 0; fi
        sleep 0.05
    done
    echo "worker $1 never reached $2 >= $3"
    cat "$WORK/fleet.json" || true
    return 1
}

echo "== start the victim worker"
"$WORK/comad" node -coordinator "$BASE" -name victim -slots 1 \
    -revision smoke >"$WORK/victim.log" 2>&1 &
VICTIM=$!
PIDS+=("$VICTIM")
wait_worker victim slots 1

echo "== launch the campaign against the cluster"
"$WORK/comabench" -params bench -only fig3 -remote "$BASE" \
    >"$WORK/cluster.txt" 2>"$WORK/comabench.err" &
CAMPAIGN=$!
PIDS+=("$CAMPAIGN")

echo "== kill the victim while it holds a lease"
wait_worker victim leases 1
kill -9 "$VICTIM"
wait "$VICTIM" 2>/dev/null || true

echo "== lease expiry: dead worker, requeued job"
sleep 2.5   # > 2 lease TTLs: the victim's silence is now conclusive
curl -fsS "$BASE/metrics" >"$WORK/metrics-after-kill.txt"   # scrape runs the sweep
python3 - "$WORK/metrics-after-kill.txt" <<'EOF'
import sys
vals = {}
for line in open(sys.argv[1]):
    if line.startswith("#"): continue
    parts = line.rsplit(None, 1)
    if len(parts) == 2: vals[parts[0]] = float(parts[1])
dead = vals.get('coma_cluster_workers{state="dead"}', 0)
exp = vals.get("coma_cluster_lease_expiries_total", 0)
req = vals.get("coma_cluster_requeues_total", 0)
assert dead == 1, f"dead workers = {dead}, want 1"
assert exp >= 1, f"lease expiries = {exp}, want >= 1"
assert req >= 1, f"requeues = {req}, want >= 1"
print(f"ok: 1 dead worker, {exp:.0f} lease expiry(ies), {req:.0f} requeue(s)")
EOF

echo "== start two replacement workers"
for name in healthy-1 healthy-2; do
    "$WORK/comad" node -coordinator "$BASE" -name "$name" -slots 1 \
        -revision smoke >"$WORK/$name.log" 2>&1 &
    PIDS+=("$!")
done
HEALTHY1=${PIDS[-2]}
HEALTHY2=${PIDS[-1]}

echo "== campaign must complete despite the crash"
if ! wait "$CAMPAIGN"; then
    echo "campaign failed"; cat "$WORK/comabench.err"; exit 1
fi

echo "== byte-identical table vs single-process"
cmp "$WORK/serial.txt" "$WORK/cluster.txt"
echo "ok: $(wc -c <"$WORK/serial.txt") bytes, identical"

echo "== graceful worker drain"
kill -TERM "$HEALTHY1"
if ! wait "$HEALTHY1"; then echo "worker $HEALTHY1 did not drain cleanly"; exit 1; fi
grep -q 'drained, bye' "$WORK/healthy-1.log"
echo "ok: healthy-1 drained and exited 0"

echo "== coordinator drain finishes the backlog behind the last worker"
# healthy-2 (one slot) is the only worker left: it works through the
# backlog one job at a time, so most of it is still queued when the
# coordinator gets SIGTERM. The drain must keep leasing it out.
IDS=()
for seed in 101 102 103 104 105 106; do
    curl -fsS -X POST "$BASE/v1/jobs" \
        -d "{\"app\":\"mp3d\",\"nodes\":4,\"protocol\":\"ecp\",\"hz\":400,\"scale\":0.05,\"seed\":$seed}" \
        >"$WORK/submit-$seed.json"
    IDS+=("$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["id"])' "$WORK/submit-$seed.json")")
done
# One ?wait=1 status request per job: each returns the job's final
# state, and the coordinator answers them all before it stops listening.
WAITERS=()
for id in "${IDS[@]}"; do
    curl -fsS "$BASE/v1/jobs/$id?wait=1" >"$WORK/final-$id.json" &
    WAITERS+=("$!")
done
curl -fsS "$BASE/healthz" >"$WORK/health-before-drain.json"
python3 - "$WORK/health-before-drain.json" <<'EOF'
import json, sys
h = json.load(open(sys.argv[1]))
assert h["queued"] >= 1, f"nothing queued when the drain starts: {h}"
print(f'ok: {h["queued"]} queued, {h["running"]} running at SIGTERM')
EOF
kill -TERM "$COORD"
if ! wait "$COORD"; then echo "coordinator exited non-zero"; cat "$WORK/comad.log"; exit 1; fi
for pid in "${WAITERS[@]}"; do
    if ! wait "$pid"; then echo "a ?wait=1 status request failed"; exit 1; fi
done
python3 - "$WORK" "${IDS[@]}" <<'EOF'
import json, sys
work, ids = sys.argv[1], sys.argv[2:]
states = [json.load(open(f"{work}/final-{i}.json"))["state"] for i in ids]
assert states == ["done"] * len(ids), f"final states {states}, want all done"
print(f"ok: coordinator exited 0 with all {len(ids)} backlog jobs done")
EOF
if ! wait "$HEALTHY2"; then echo "healthy-2 did not exit 0 after the coordinator drained"; exit 1; fi
grep -q 'drained, bye' "$WORK/healthy-2.log"
echo "ok: the last worker left on its own"

echo "smoke-cluster: all checks passed"
