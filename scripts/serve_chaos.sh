#!/usr/bin/env bash
# serve_chaos.sh — the serve-layer chaos gate.
#
# Runs the in-process chaos harness (internal/serve/chaos_test.go) under the
# race detector: scorer panics, workload panics, stalled sources, checkpoint
# corruption racing hot-reload, and counter faults all injected concurrently
# against one live supervisor, asserting that
#
#   1. the supervisor never deadlocks (drain completes promptly on cancel),
#   2. no sample is ever dropped unlogged (one verdict record per admitted
#      sample, scorer failures included),
#   3. health endpoints report degradation truthfully throughout, and
#   4. the drain leaves zero goroutines behind.
#
# Then serves every workload from the race-built binary with a crash-safe
# verdict log: /readyz stays 200 and tells the truth in its body, SIGTERM
# drains cleanly, the durable ledger /healthz reports after the drain
# balances with nothing lost, and no logged record was shed.
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

echo "== serve every workload with a crash-safe verdict log =="
# -metrics-hold keeps /healthz up after the drain, for the ledger check.
"$BIN" serve -in "$DET" -workloads all -insts 40000 \
    -verdicts "$VERDICTS" -metrics-addr "127.0.0.1:$PORT" -metrics-hold 5s 2>"$LOG" &
SERVE=$!
trap 'kill "$SERVE" 2>/dev/null || true' EXIT

for i in $(seq 60); do
  [ "$(curl -fso /dev/null -w '%{http_code}' "http://127.0.0.1:$PORT/readyz" || true)" = 200 ] && break
  kill -0 "$SERVE" 2>/dev/null || fail "serve exited before becoming ready"
  sleep 1
done
[ "$(curl -fso /dev/null -w '%{http_code}' "http://127.0.0.1:$PORT/readyz")" = 200 ] \
  || fail "/readyz never turned 200"

echo "== wait for verdicts to register =="
VERDICT_RE='^perspectron_serve_verdict_latency_seconds_count [1-9]'
for i in $(seq 60); do
  curl -fs "http://127.0.0.1:$PORT/metrics" > /tmp/serve-chaos.metrics || true
  grep -Eq "$VERDICT_RE" /tmp/serve-chaos.metrics && break
  kill -0 "$SERVE" 2>/dev/null || fail "serve died while serving"
  sleep 1
done
grep -Eq "$VERDICT_RE" /tmp/serve-chaos.metrics \
  || fail "no verdict reached the latency histogram"
# /readyz stays 200 while serving and tells the truth in the body.
[ "$(curl -fso /dev/null -w '%{http_code}' "http://127.0.0.1:$PORT/readyz")" = 200 ] \
  || fail "/readyz dropped to 503 while serving"
READY_BODY=$(curl -fs "http://127.0.0.1:$PORT/readyz")
HEALTH=$(curl -fs "http://127.0.0.1:$PORT/healthz")
if echo "$HEALTH" | grep -q '"status": "degraded"'; then
  [ "$READY_BODY" = degraded ] || fail "/readyz body '$READY_BODY' hides degraded state"
fi

echo "== SIGTERM drains cleanly, the durable ledger balances, nothing shed =="
kill -TERM "$SERVE"
for i in $(seq 60); do grep -q 'drained cleanly' "$LOG" && break; sleep 1; done
grep -q 'drained cleanly' "$LOG" || fail "serve did not drain within 60s of SIGTERM"
# A draining server answers /healthz with 503 and its final Health body.
curl -s "http://127.0.0.1:$PORT/healthz" > /tmp/serve-chaos.healthz \
  || fail "/healthz unreachable after the drain"
for i in $(seq 60); do kill -0 "$SERVE" 2>/dev/null || break; sleep 1; done
kill -0 "$SERVE" 2>/dev/null && fail "serve did not exit within 60s of the drain"
trap - EXIT
wait "$SERVE" || fail "serve exited non-zero after SIGTERM"
test -s "$VERDICTS" || fail "verdict log empty after drain"
python3 - "$VERDICTS" /tmp/serve-chaos.healthz <<'EOF'
import json, sys
lines = [json.loads(l) for l in open(sys.argv[1]) if l.strip()]
d = json.load(open(sys.argv[2]))["durable"]
assert d["enqueued"] == d["records"] + d["lost"], f"ledger unbalanced: {d}"
assert d["lost"] == 0, f"ledger lost verdicts on a clean drain: {d}"
samples = [r for r in lines if r.get("mode") != "recovery"]
assert samples, "no verdict lines"
shed = [r for r in samples if r.get("shed")]
assert not shed, f"{len(shed)} shed records, e.g. {shed[0]}"
print(f"{len(samples)} verdicts, durable ledger {d['enqueued']} = {d['records']} + {d['lost']}")
EOF
echo "serve_chaos: OK"
