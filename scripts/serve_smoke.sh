#!/usr/bin/env bash
# serve_smoke.sh — end-to-end smoke test for `perspectron serve`.
#
# Builds a race-enabled binary, trains a small detector, runs the service
# against one attack and one benign stream, then exercises the resilience
# contract from docs/SERVICE.md:
#
#   1. /readyz turns 200 once the workers are up.
#   2. Corrupting the live checkpoint triggers a rollback — the last good
#      model stays in service, visible in /healthz (rollbacks, reload_error)
#      and in the perspectron_serve_reloads_total{result="rollback"} counter.
#   3. SIGTERM drains cleanly: exit 0, verdict log flushed and valid JSONL.
#
# Env: CACHEDIR (corpus cache dir, default .corpus-cache), PORT (default 9466).
set -euo pipefail

CACHEDIR="${CACHEDIR:-.corpus-cache}"
PORT="${PORT:-9466}"
BIN=/tmp/perspectron-race
DET=/tmp/serve-smoke-det.json
VERDICTS=/tmp/serve-smoke-verdicts.jsonl
LOG=/tmp/serve-smoke.log
rm -f "$VERDICTS" "$VERDICTS.state" "$VERDICTS.torn" "$VERDICTS.offset" "$LOG"

fail() { echo "serve_smoke: FAIL: $1" >&2; [ -f "$LOG" ] && tail -20 "$LOG" >&2; exit 1; }

echo "== build (race) =="
go build -race -o "$BIN" ./cmd/perspectron

echo "== train a small detector =="
"$BIN" train -insts 50000 -runs 1 -cachedir "$CACHEDIR" -out "$DET"

echo "== start serve =="
"$BIN" serve -in "$DET" -workloads spectreV1,bzip2 -insts 40000 \
    -poll 200ms -verdicts "$VERDICTS" \
    -metrics-addr "127.0.0.1:$PORT" 2>"$LOG" &
SERVE=$!
trap 'kill "$SERVE" 2>/dev/null || true' EXIT

for i in $(seq 60); do
  [ "$(curl -fso /dev/null -w '%{http_code}' "http://127.0.0.1:$PORT/readyz" || true)" = 200 ] && break
  kill -0 "$SERVE" 2>/dev/null || fail "serve exited before becoming ready"
  sleep 1
done
[ "$(curl -fso /dev/null -w '%{http_code}' "http://127.0.0.1:$PORT/readyz")" = 200 ] \
  || fail "/readyz never turned 200"
# Each scrape is captured before it is grepped: piping curl into `grep -q`
# under pipefail fails when grep exits on the match and curl then writes the
# rest of the page into the closed pipe.
HEALTH=$(curl -fs "http://127.0.0.1:$PORT/healthz") || fail "/healthz unreachable"
grep -q '"detector_version"' <<<"$HEALTH" || fail "/healthz missing the model version"

echo "== corrupt the live checkpoint, expect a rollback =="
GOOD_VERSION=$(grep -o '"detector_version": "[^"]*"' <<<"$HEALTH")
echo '{"this is": "not a checkpoint"}' > "$DET"
for i in $(seq 30); do
  HEALTH=$(curl -fs "http://127.0.0.1:$PORT/healthz" || true)
  grep -q '"rollbacks": 1' <<<"$HEALTH" && break
  sleep 1
done
HEALTH=$(curl -fs "http://127.0.0.1:$PORT/healthz") || fail "/healthz unreachable after the corrupt write"
grep -q '"rollbacks": 1' <<<"$HEALTH"       || fail "rollback not counted in /healthz"
grep -q '"reload_error"' <<<"$HEALTH"       || fail "reload error not surfaced in /healthz"
grep -q '"status": "degraded"' <<<"$HEALTH" || fail "rollback did not degrade status"
grep -qF "$GOOD_VERSION" <<<"$HEALTH"       || fail "live model version changed after a corrupt write"
METRICS=$(curl -fs "http://127.0.0.1:$PORT/metrics") || fail "/metrics unreachable"
grep -qF 'perspectron_serve_reloads_total{result="rollback"} 1' <<<"$METRICS" \
  || fail "rollback counter missing from /metrics"
kill -0 "$SERVE" 2>/dev/null || fail "serve died on a corrupt checkpoint"

echo "== SIGTERM drains cleanly =="
kill -TERM "$SERVE"
for i in $(seq 60); do kill -0 "$SERVE" 2>/dev/null || break; sleep 1; done
kill -0 "$SERVE" 2>/dev/null && fail "serve did not exit within 60s of SIGTERM"
trap - EXIT
wait "$SERVE" || fail "serve exited non-zero after SIGTERM"
grep -q 'drained cleanly' "$LOG" || fail "drain message missing from serve log"
test -s "$VERDICTS" || fail "verdict log empty after drain"
python3 - "$VERDICTS" <<'EOF'
import json, sys
lines = [l for l in open(sys.argv[1]) if l.strip()]
assert lines, "no verdict lines"
for l in lines:
    rec = json.loads(l)
    assert {"worker", "mode", "score", "coverage"} <= rec.keys(), rec
assert any(json.loads(l)["flagged"] for l in lines), "no flagged verdicts from spectreV1"
EOF
echo "serve_smoke: OK (${GOOD_VERSION}, $(wc -l < "$VERDICTS") verdicts)"
