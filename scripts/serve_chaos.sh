#!/usr/bin/env bash
# serve_chaos.sh — the serve-layer chaos gate.
#
# Runs the in-process chaos harness (internal/serve/chaos_test.go) under the
# race detector: scorer panics, workload panics, stalled sources, checkpoint
# corruption racing hot-reload, and load spikes all injected concurrently
# against one live supervisor, asserting that
#
#   1. the supervisor never deadlocks (drain completes promptly on cancel),
#   2. no sample is ever dropped unlogged (enqueued == scored + shed, with a
#      verdict record for every shed and every scorer failure),
#   3. health endpoints report degradation truthfully throughout, and
#   4. the drain leaves zero goroutines behind.
#
# Then drives the same overload machinery through the real binary: a small
# detector served with tiny queues and many streams must shed loudly —
# perspectron_serve_shed_total visible in /metrics, shed-mode records in the
# verdict log — while /readyz stays 200 and reports its degraded-but-serving
# state in the body.
#
# Env: CACHEDIR (corpus cache dir, default .corpus-cache), PORT (default
# 9467), CHAOS_TIMEOUT (go test wall-clock budget, default 5m).
set -euo pipefail

CACHEDIR="${CACHEDIR:-.corpus-cache}"
PORT="${PORT:-9467}"
CHAOS_TIMEOUT="${CHAOS_TIMEOUT:-5m}"
BIN=/tmp/perspectron-chaos
DET=/tmp/serve-chaos-det.json
VERDICTS=/tmp/serve-chaos-verdicts.jsonl
LOG=/tmp/serve-chaos.log
rm -f "$VERDICTS" "$VERDICTS.state" "$VERDICTS.torn" "$VERDICTS.offset" "$LOG"

fail() { echo "serve_chaos: FAIL: $1" >&2; [ -f "$LOG" ] && tail -20 "$LOG" >&2; exit 1; }

echo "== chaos harness (race) =="
go test -race -run TestServeChaos -count 1 -timeout "$CHAOS_TIMEOUT" ./internal/serve/ \
  || fail "chaos harness failed"

echo "== build (race) =="
go build -race -o "$BIN" ./cmd/perspectron

echo "== train a small detector =="
"$BIN" train -insts 50000 -runs 1 -cachedir "$CACHEDIR" -out "$DET"

echo "== overload the real binary: tiny queues, many streams =="
# queue-depth 1: the single slot makes producer collisions shed, so the
# overload path is exercised deterministically within the wait budget.
"$BIN" serve -in "$DET" -workloads all -insts 40000 \
    -shards 2 -queue-depth 1 -batch 2 -load-high 0.9 -load-critical 0.95 \
    -verdicts "$VERDICTS" -metrics-addr "127.0.0.1:$PORT" 2>"$LOG" &
SERVE=$!
trap 'kill "$SERVE" 2>/dev/null || true' EXIT

for i in $(seq 60); do
  [ "$(curl -fso /dev/null -w '%{http_code}' "http://127.0.0.1:$PORT/readyz" || true)" = 200 ] && break
  kill -0 "$SERVE" 2>/dev/null || fail "serve exited before becoming ready"
  sleep 1
done
[ "$(curl -fso /dev/null -w '%{http_code}' "http://127.0.0.1:$PORT/readyz")" = 200 ] \
  || fail "/readyz never turned 200"

echo "== wait for sheds and load degradation to register =="
# The per-shard shed series exist from startup at 0; wait for a non-zero one.
SHED_RE='^perspectron_serve_shed_total\{shard="[0-9]+"\} [1-9]'
for i in $(seq 60); do
  curl -fs "http://127.0.0.1:$PORT/metrics" | grep -Eq "$SHED_RE" && break
  kill -0 "$SERVE" 2>/dev/null || fail "serve died under overload"
  sleep 1
done
curl -fs "http://127.0.0.1:$PORT/metrics" > /tmp/serve-chaos.metrics
grep -Eq "$SHED_RE" /tmp/serve-chaos.metrics \
  || fail "overload produced no shed counter"
grep -q 'perspectron_serve_verdict_latency_seconds' /tmp/serve-chaos.metrics \
  || fail "verdict latency histogram missing"
# Degraded-but-serving: /readyz stays 200 and tells the truth in the body.
[ "$(curl -fso /dev/null -w '%{http_code}' "http://127.0.0.1:$PORT/readyz")" = 200 ] \
  || fail "/readyz dropped to 503 while degraded-but-serving"
READY_BODY=$(curl -fs "http://127.0.0.1:$PORT/readyz")
HEALTH=$(curl -fs "http://127.0.0.1:$PORT/healthz")
echo "$HEALTH" | grep -q '"shards"' || fail "/healthz missing shard rows"
if echo "$HEALTH" | grep -q '"status": "degraded"'; then
  [ "$READY_BODY" = degraded ] || fail "/readyz body '$READY_BODY' hides degraded state"
fi

echo "== SIGTERM drains cleanly, every shed logged =="
kill -TERM "$SERVE"
for i in $(seq 60); do kill -0 "$SERVE" 2>/dev/null || break; sleep 1; done
kill -0 "$SERVE" 2>/dev/null && fail "serve did not exit within 60s of SIGTERM"
trap - EXIT
wait "$SERVE" || fail "serve exited non-zero after SIGTERM"
grep -q 'drained cleanly' "$LOG" || fail "drain message missing from serve log"
test -s "$VERDICTS" || fail "verdict log empty after drain"
python3 - "$VERDICTS" <<'EOF'
import json, sys
lines = [json.loads(l) for l in open(sys.argv[1]) if l.strip()]
assert lines, "no verdict lines"
sheds = [r for r in lines if r.get("shed")]
assert sheds, "overload shed nothing — queues never filled"
for r in sheds:
    assert r["mode"] == "shed", r
print(f"{len(lines)} verdicts, {len(sheds)} shed records")
EOF
echo "serve_chaos: OK"
