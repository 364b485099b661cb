#!/usr/bin/env bash
# Distributed campaign smoke test.
#
# Exercises the coordinator/worker tier across real processes:
#   1. start `emptcpsim serve` (the coordinator) with a short lease TTL
#      and a bearer token,
#   2. attach one `emptcpsim worker` process with its own cache dir,
#   3. submit a campaign over HTTP,
#   4. SIGKILL the worker while it holds a lease — no goodbye, no lease
#      release — and only then attach a second worker; the dead
#      worker's shard must expire and reassign,
#   5. wait for completion and assert the campaign finished with at
#      least one lease expiry,
#   6. diff the served aggregates byte-for-byte against a single-process
#      `emptcpsim campaign -j 1` reference,
#   7. assert /statz answers and the workers actually contributed
#      (remote_runs > 0).
#
# Everything lives in a temp dir removed on exit.
set -euo pipefail

ADDR=127.0.0.1:18384
BASE="http://$ADDR"
TOKEN=smoke-token
AUTH="Authorization: Bearer $TOKEN"

WORK=$(mktemp -d)
SERVER_PID=""
W1_PID=""
W2_PID=""
cleanup() {
  for pid in "$W1_PID" "$W2_PID" "$SERVER_PID"; do
    [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
  done
  for pid in "$W1_PID" "$W2_PID" "$SERVER_PID"; do
    [ -n "$pid" ] && wait "$pid" 2>/dev/null || true
  done
  rm -rf "$WORK"
}
trap cleanup EXIT

say() { echo "[smoke-dist] $*"; }
die() { echo "[smoke-dist] FAIL: $*" >&2; exit 1; }

# jget FILE FIELD [SUBFIELD] — pull one scalar field out of a JSON doc.
jget() {
  python3 -c 'import json,sys
d=json.load(open(sys.argv[1]))
for k in sys.argv[2:]: d=d[int(k)] if isinstance(d, list) else d[k]
print(d)' "$@"
}

say "building emptcpsim"
go build -o "$WORK/emptcpsim" ./cmd/emptcpsim

cat > "$WORK/spec.json" <<'EOF'
{
  "name": "smoke-distributed",
  "wifi": ["bad"],
  "lte": ["good"],
  "locations": ["wdc", "sng"],
  "sizes_mb": [16],
  "protocols": ["mptcp", "emptcp"],
  "seeds": {"base": 0, "count": 6000},
  "shard_size": 500
}
EOF
# 2 locations x 2 protocols x 6000 seeds. A 16 MB run and a 500-run shard
# keep a worker folding for tens of milliseconds per lease and the
# campaign running for seconds, so the kill below lands on a held lease.
TOTAL=24000

say "reference: uninterrupted single-process -j 1 run"
"$WORK/emptcpsim" campaign -j 1 -o "$WORK/ref.json" "$WORK/spec.json"

say "starting coordinator (lease TTL 2s, auth required)"
"$WORK/emptcpsim" serve -addr "$ADDR" -cachedir "$WORK/cache-coord" -j 1 \
  -token "$TOKEN" -lease-ttl 2s 2>"$WORK/serve.log" &
SERVER_PID=$!
for _ in $(seq 1 100); do
  curl -sf "$BASE/healthz" >/dev/null 2>&1 && break
  kill -0 "$SERVER_PID" 2>/dev/null || die "coordinator died on startup: $(cat "$WORK/serve.log")"
  sleep 0.1
done
curl -sf "$BASE/healthz" >/dev/null || die "coordinator did not come up"

say "tokenless requests must bounce"
CODE=$(curl -s -o /dev/null -w '%{http_code}' "$BASE/campaigns")
[ "$CODE" = 401 ] || die "tokenless list answered $CODE, want 401"

# worker N — start a worker process with its own cache dir.
worker() {
  "$WORK/emptcpsim" worker -coordinator "$BASE" -token "$TOKEN" \
    -cachedir "$WORK/cache-w$1" -j 1 -poll 50ms -name "w$1" -v 2>>"$WORK/w$1.log" &
}

say "attaching worker 1 alone"
worker 1
W1_PID=$!

say "submitting campaign"
curl -sf -H "$AUTH" -X POST -d @"$WORK/spec.json" "$BASE/campaigns" > "$WORK/submit.json"
ID=$(jget "$WORK/submit.json" id)
say "campaign id: $ID"

# The kill lands on the first reading that shows worker 1 holding a
# lease. Local folds hold none and worker 2 is not attached yet, so the
# table's leases are worker 1's. It may still finish its shard between
# that reading and the kill; the reading after the kill (once an
# in-flight completion has had time to land) tells, and a fresh worker 1
# is attached to try again.
for attempt in 1 2 3 4 5; do
  say "waiting for worker 1 to hold a lease, then SIGKILL it"
  DONE=0 LEASED=0
  for _ in $(seq 1 400); do
    curl -sf -H "$AUTH" "$BASE/campaigns/$ID" > "$WORK/prog.json"
    read -r LEASED DONE < <(python3 -c 'import json,sys
d=json.load(open(sys.argv[1]))
print(d["leases"]["leased"], d["runs_done"])' "$WORK/prog.json")
    [ "$LEASED" -ge 1 ] && [ "$DONE" -lt "$TOTAL" ] && break
    [ "$DONE" -lt "$TOTAL" ] || die "campaign finished before worker 1 held a lease; enlarge the spec"
    sleep 0.01
  done
  [ "$LEASED" -ge 1 ] || die "worker 1 never held a lease (runs_done=$DONE)"
  say "SIGKILL worker 1 at $DONE/$TOTAL runs"
  kill -KILL "$W1_PID"
  wait "$W1_PID" 2>/dev/null || true
  W1_PID=""
  sleep 0.2
  curl -sf -H "$AUTH" "$BASE/campaigns/$ID" > "$WORK/prog.json"
  LEASED=$(jget "$WORK/prog.json" leases leased)
  [ "$LEASED" -ge 1 ] && break
  [ "$attempt" -lt 5 ] || die "worker 1 held no lease at any of 5 kills"
  say "worker 1 died between leases; attaching a fresh worker 1"
  worker 1
  W1_PID=$!
done

say "attaching worker 2"
worker 2
W2_PID=$!

say "waiting for completion (dead worker's shards must reassign)"
STATUS=queued
for _ in $(seq 1 1200); do
  curl -sf -H "$AUTH" "$BASE/campaigns/$ID" > "$WORK/prog2.json"
  STATUS=$(jget "$WORK/prog2.json" status)
  case "$STATUS" in
    done) break ;;
    failed|cancelled) die "campaign $STATUS: $(cat "$WORK/prog2.json")" ;;
  esac
  sleep 0.1
done
[ "$STATUS" = done ] || die "campaign did not finish after worker kill"

REMOTE=$(jget "$WORK/prog2.json" remote_runs)
EXPIRED=$(jget "$WORK/prog2.json" leases expired)
say "remote_runs=$REMOTE lease expiries=$EXPIRED"
[ "$REMOTE" -gt 0 ] || die "no runs were computed remotely; workers never participated"
[ "$EXPIRED" -ge 1 ] || die "no lease expired; the killed worker's shard was never reassigned"

say "fetching served result and diffing against the reference"
curl -sf -H "$AUTH" "$BASE/campaigns/$ID/result" > "$WORK/served.json"
cmp "$WORK/ref.json" "$WORK/served.json" \
  || die "distributed aggregates differ from the -j 1 reference"

say "checking /statz"
curl -sf -H "$AUTH" "$BASE/statz" > "$WORK/statz.json"
[ "$(jget "$WORK/statz.json" campaigns 0 id)" = "$ID" ] || die "statz does not list the campaign"

say "stopping worker 2 and coordinator"
kill -TERM "$W2_PID"; wait "$W2_PID" 2>/dev/null || true; W2_PID=""
kill -TERM "$SERVER_PID"; wait "$SERVER_PID" || true; SERVER_PID=""

say "PASS"
