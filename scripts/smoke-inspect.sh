#!/usr/bin/env bash
# Live-inspection smoke test (CI: smoke-inspect job; locally: make
# smoke-inspect). Exercises the inspection layer end to end and proves
# the core promise — observing a run does not change it:
#   1. a plain comasim run and a comasim -repl run (pause, query a
#      line's placement, step, resume) of the same 16-node faulted spec,
#      and of a 9-node barnes spec, produce byte-identical traces and
#      identical results;
#   2. comatrace summarize exits non-zero on an empty trace;
#   3. a comad daemon answers all four inspect views (summary, node,
#      queues, line) with valid JSON while a 16-node faulted job is
#      mid-run, streams samples over SSE, and reports the per-job
#      gauges on /metrics;
#   4. the inspected daemon job's stored result is byte-identical to
#      the same spec run uninspected by a fresh daemon;
#   5. SIGTERM drains and both daemons exit 0.
#
# Set ARTIFACT_DIR to keep logs, traces and JSON responses (CI uploads
# them); otherwise everything lives in a temp dir.
set -euo pipefail

PORT="${SMOKE_PORT:-7743}"
PORT2=$((PORT + 1))
BASE="http://127.0.0.1:${PORT}"
BASE2="http://127.0.0.1:${PORT2}"
WORK="$(mktemp -d)"

cleanup() {
    [ -n "${DAEMON:-}" ] && kill "$DAEMON" 2>/dev/null || true
    [ -n "${DAEMON2:-}" ] && kill "$DAEMON2" 2>/dev/null || true
    if [ -n "${ARTIFACT_DIR:-}" ]; then
        mkdir -p "$ARTIFACT_DIR"
        cp "$WORK"/*.log "$WORK"/*.json "$WORK"/*.jsonl "$WORK"/*.txt "$ARTIFACT_DIR"/ 2>/dev/null || true
    fi
    rm -rf "$WORK"
}
trap cleanup EXIT

# 16 nodes, ECP, a permanent node failure mid-run. The CLI runs use a
# small scale so the trace-diff part stays fast; the daemon job uses a
# larger one so it is still mid-run when we query it.
CLI_FLAGS=(-app mp3d -nodes 16 -protocol ecp -hz 400 -scale 0.005 -seed 7 -fail 30000:2)
BARNES_FLAGS=(-app barnes -nodes 9 -protocol standard -scale 0.0055)
SPEC='{"app":"mp3d","nodes":16,"protocol":"ecp","hz":400,"scale":0.5,"seed":7,"failures":[{"at":30000,"node":2,"permanent":true}]}'

echo "== build"
go build -o "$WORK/comasim" ./cmd/comasim
go build -o "$WORK/comad" ./cmd/comad
go build -o "$WORK/comatrace" ./cmd/comatrace

echo "== inspected CLI run is byte-identical to uninspected"
# The barnes flags are a second input: their scaled budget once ran one
# instruction longer in a plain run than under -repl.
for FLAGS in "${CLI_FLAGS[*]}" "${BARNES_FLAGS[*]}"; do
    read -r -a RUN <<<"$FLAGS"
    "$WORK/comasim" "${RUN[@]}" -trace-out "$WORK/base.jsonl" >"$WORK/base.txt" 2>&1
    printf 'pause\nstep 20000\nline 100\nnode\nqueues\nsummary\nquit\n' |
        "$WORK/comasim" -repl "${RUN[@]}" -trace-out "$WORK/repl.jsonl" >"$WORK/repl.txt" 2>&1
    cmp "$WORK/base.jsonl" "$WORK/repl.jsonl"
    grep -q 'owner' "$WORK/repl.txt" || { echo "REPL never reported a line's owner"; cat "$WORK/repl.txt"; exit 1; }
    diff <(grep -E 'cycles|instructions' "$WORK/base.txt") <(grep -E 'cycles|instructions' "$WORK/repl.txt")
    echo "ok: ${RUN[*]}: $(wc -c <"$WORK/base.jsonl") trace bytes identical, results match"
done

echo "== comatrace summarize rejects an empty trace"
: >"$WORK/empty.jsonl"
if "$WORK/comatrace" summarize "$WORK/empty.jsonl" >"$WORK/empty.txt" 2>&1; then
    echo "comatrace summarize exited 0 on an empty trace"; exit 1
fi
grep -q 'no events' "$WORK/empty.txt"
echo "ok: non-zero exit with a clear message"

echo "== boot daemon"
"$WORK/comad" serve -addr "127.0.0.1:${PORT}" -workers 2 \
    -cache-dir "$WORK/cache" -revision smoke >"$WORK/comad.log" 2>&1 &
DAEMON=$!
for i in $(seq 1 50); do
    if curl -fsS "$BASE/healthz" >/dev/null 2>&1; then break; fi
    if [ "$i" = 50 ]; then echo "daemon never came up"; cat "$WORK/comad.log"; exit 1; fi
    sleep 0.1
done

echo "== submit async 16-node faulted job"
curl -fsS -X POST "$BASE/v1/jobs" -d "$SPEC" >"$WORK/submit.json"
JOB_ID="$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["id"])' "$WORK/submit.json")"
for i in $(seq 1 100); do
    STATE="$(curl -fsS "$BASE/v1/jobs/$JOB_ID" | python3 -c 'import json,sys; print(json.load(sys.stdin)["state"])')"
    [ "$STATE" = running ] && break
    [ "$STATE" = done ] && { echo "job finished before inspection (raise scale)"; exit 1; }
    sleep 0.05
done
[ "$STATE" = running ] || { echo "job never started running (state=$STATE)"; exit 1; }

echo "== all four inspect views mid-run"
# Let the run get past its warm-up before asserting on view contents:
# freshly booted nodes legitimately report zero AM frames.
for i in $(seq 1 200); do
    CYC="$(curl -fsS "$BASE/v1/jobs/$JOB_ID/inspect?view=summary" |
        python3 -c 'import json,sys; print(json.load(sys.stdin)["sim_cycles"])')"
    [ "$CYC" -ge 50000 ] && break
    if [ "$i" = 200 ]; then echo "job never reached cycle 50000 (at $CYC)"; exit 1; fi
    sleep 0.05
done
curl -fsS "$BASE/v1/jobs/$JOB_ID/inspect?view=summary" >"$WORK/summary.json"
curl -fsS "$BASE/v1/jobs/$JOB_ID/inspect?view=node" >"$WORK/node.json"
curl -fsS "$BASE/v1/jobs/$JOB_ID/inspect?view=queues" >"$WORK/queues.json"
curl -fsS "$BASE/v1/jobs/$JOB_ID/inspect?view=line&item=100" >"$WORK/line.json"
python3 - "$WORK" <<'EOF'
import json, sys
w = sys.argv[1]
s = json.load(open(f"{w}/summary.json"))
assert s["nodes"] == 16, s
assert s["sim_cycles"] > 0, s
assert not s["finished"], "summary claims finished mid-run"
nodes = json.load(open(f"{w}/node.json"))
assert len(nodes) == 16, f"{len(nodes)} node views, want 16"
assert all(n["frames"] > 0 for n in nodes if n["alive"]), "a live node reports zero AM frames"
assert not nodes[2]["alive"], "node 2 should be dead (permanent failure at cycle 30000)"
q = json.load(open(f"{w}/queues.json"))
assert "request" in q and "reply" in q, q
assert q["request"]["inflight"] >= 0 and q["reply"]["inflight"] >= 0, q
line = json.load(open(f"{w}/line.json"))
assert line["item"] == 100, line
assert "home" in line and "copies" in line and "recovery_pairs" in line, line
print(f'ok: cycle {s["sim_cycles"]}, {s["events"]} events, '
      f'line 100 home={line["home"]} copies={len(line["copies"])}')
EOF

echo "== SSE stream delivers samples"
curl -sN --max-time 3 "$BASE/v1/jobs/$JOB_ID/inspect/stream" >"$WORK/stream.txt" || true
grep -c '^event: sample$' "$WORK/stream.txt" >/dev/null
python3 - "$WORK/stream.txt" <<'EOF'
import json, sys
datas = [l[6:] for l in open(sys.argv[1]) if l.startswith("data: ")]
assert datas, "no samples on the stream"
s = json.loads(datas[0])
assert s["seq"] >= 1 and s["summary"]["sim_cycles"] > 0, s
print(f"ok: {len(datas)} samples, first at cycle {s['summary']['sim_cycles']}")
EOF

echo "== per-job gauges on /metrics"
curl -fsS "$BASE/metrics" >"$WORK/metrics.txt"
grep -q "^coma_job_sim_cycles{job=\"${JOB_ID:0:12}" "$WORK/metrics.txt"
grep -q "^coma_queue_depth{job=\"${JOB_ID:0:12}.*subnet=\"request\"" "$WORK/metrics.txt"
grep -q "^coma_queue_depth{job=\"${JOB_ID:0:12}.*subnet=\"reply\"" "$WORK/metrics.txt"
echo "ok: sim_cycles and queue_depth families present"

echo "== inspected daemon result is byte-identical to uninspected"
curl -fsS "$BASE/v1/jobs/$JOB_ID?wait=1" >/dev/null
curl -fsS "$BASE/v1/jobs/$JOB_ID/result" >"$WORK/inspected.json"
"$WORK/comad" serve -addr "127.0.0.1:${PORT2}" -workers 2 \
    -cache-dir "$WORK/cache2" -revision smoke >"$WORK/comad2.log" 2>&1 &
DAEMON2=$!
for i in $(seq 1 50); do
    if curl -fsS "$BASE2/healthz" >/dev/null 2>&1; then break; fi
    if [ "$i" = 50 ]; then echo "second daemon never came up"; cat "$WORK/comad2.log"; exit 1; fi
    sleep 0.1
done
curl -fsS -X POST "$BASE2/v1/jobs?wait=1" -d "$SPEC" >/dev/null
curl -fsS "$BASE2/v1/jobs/$JOB_ID/result" >"$WORK/uninspected.json"
cmp "$WORK/inspected.json" "$WORK/uninspected.json"
echo "ok: $(wc -c <"$WORK/inspected.json") result bytes identical"

echo "== graceful shutdown"
for D in "$DAEMON" "$DAEMON2"; do
    kill -TERM "$D"
    for i in $(seq 1 100); do
        if ! kill -0 "$D" 2>/dev/null; then break; fi
        if [ "$i" = 100 ]; then echo "daemon $D ignored SIGTERM"; exit 1; fi
        sleep 0.1
    done
    wait "$D" || { echo "daemon $D exited non-zero"; cat "$WORK"/comad*.log; exit 1; }
done
echo "ok: both daemons drained and exited 0"

echo "smoke-inspect: all checks passed"
