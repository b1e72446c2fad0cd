#!/usr/bin/env bash
# explain_smoke.sh — end-to-end smoke test for verdict forensics (see
# docs/OBSERVABILITY.md): the serving path must stamp trace IDs, stage
# timings and top-k feature attributions into the verdict log, and
# `perspectron explain` must reconstruct a recorded verdict offline from the
# log + checkpoint alone, reproducing the recorded attribution bit-for-bit —
# and exit non-zero when the log has been tampered with.
#
# Env: CACHEDIR (corpus cache dir, default .corpus-cache).
set -euo pipefail

CACHEDIR="${CACHEDIR:-.corpus-cache}"
BIN=/tmp/perspectron-explain
DET=/tmp/explain-smoke-det.json
VERDICTS=/tmp/explain-smoke-verdicts.jsonl
LOG=/tmp/explain-smoke.log
rm -f "$DET" "$DET.last-good" "$DET.last-good.2" "$VERDICTS" "$VERDICTS.state" "$VERDICTS.torn" "$VERDICTS.offset" "$LOG"

fail() { echo "explain_smoke: FAIL: $1" >&2; [ -f "$LOG" ] && tail -20 "$LOG" >&2; exit 1; }

echo "== build =="
go build -o "$BIN" ./cmd/perspectron

echo "== train a seed detector =="
"$BIN" train -insts 50000 -runs 1 -cachedir "$CACHEDIR" -out "$DET"

echo "== bounded serve with attribution on (defaults + benign sampling) =="
"$BIN" serve -in "$DET" -workloads spectreV1,bzip2 -insts 40000 -episodes 1 \
    -attr-benign-every 2 -verdicts "$VERDICTS" 2>"$LOG" \
  || fail "serve exited non-zero"
grep -q 'all workers completed' "$LOG" || fail "serve did not complete its bounded episodes"
test -s "$VERDICTS" || fail "verdict log empty"

echo "== every record carries a trace; flagged ones carry fired + attr =="
python3 - "$VERDICTS" <<'EOF'
import json, sys
total = flagged = attributed = 0
for line in open(sys.argv[1]):
    rec = json.loads(line)
    if rec.get("mode") == "recovery":
        continue  # startup accounting stamp, not a sample verdict
    total += 1
    assert rec.get("trace"), rec
    if rec.get("flagged"):
        flagged += 1
        assert rec.get("fired") and rec.get("attr"), rec
    if rec.get("attr"):
        attributed += 1
assert total and flagged and attributed, (total, flagged, attributed)
print(f"  {total} verdicts, {flagged} flagged, {attributed} attributed")
EOF

echo "== explain reproduces the recorded attribution bit-for-bit =="
"$BIN" explain -verdicts "$VERDICTS" -in "$DET" | tee /tmp/explain-smoke-out.txt
grep -q 'bit-for-bit' /tmp/explain-smoke-out.txt || fail "explain did not report consistency"
"$BIN" explain -verdicts "$VERDICTS" -in "$DET" -json > /tmp/explain-smoke.json \
  || fail "explain -json exited non-zero"
python3 - /tmp/explain-smoke.json <<'EOF'
import json, sys
e = json.load(open(sys.argv[1]))
assert e["score_match"] and e["attr_match"], e.get("diffs")
assert e["score"] == e["record"]["score"], (e["score"], e["record"]["score"])
assert e["attr"] == e["record"]["attr"], "attribution did not reproduce bit-for-bit"
assert e["version"] == e["record"]["version"], (e["version"], e["record"]["version"])
EOF

echo "== tampering is caught: non-zero exit, diff listed =="
TAMPERED=/tmp/explain-smoke-tampered.jsonl
python3 - "$VERDICTS" "$TAMPERED" <<'EOF'
import json, sys
lines = [json.loads(l) for l in open(sys.argv[1])]
# Explain defaults to the last attributed record — lie about exactly that one.
idx = max(i for i, rec in enumerate(lines) if rec.get("attr"))
lines[idx]["score"] += 1e-9
with open(sys.argv[2], "w") as f:
    for rec in lines:
        f.write(json.dumps(rec) + "\n")
EOF
if "$BIN" explain -verdicts "$TAMPERED" -in "$DET" > /tmp/explain-smoke-tamper.txt 2>&1; then
  fail "tampered log explained with exit 0"
fi
grep -q 'DIVERGED' /tmp/explain-smoke-tamper.txt || fail "tamper diff not printed"

echo "explain_smoke: OK"
