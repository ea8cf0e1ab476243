#!/bin/sh
# End-to-end durability smoke test for the socket daemon, runnable
# locally and in CI. Six legs:
#
#   1. a sharded socket daemon with a persistent store serves a cold
#      pass then a warm pass (program cache hit, zero recomputation);
#   2. the daemon is killed with SIGKILL — no chance to flush anything
#      beyond what the journal already holds — and a fresh daemon over
#      the same store serves the same program with zero function
#      misses, reporting restored entries in stats;
#   3. SIGTERM drains the healthy daemon: exit 0, socket file removed,
#      per-shard journals on disk;
#   4. chaos worker-kill under a fixed seed is deterministic: two
#      daemons under --chaos 42 lose exactly the same requests, and a
#      daemon that lost workers drains with the degraded exit code 3;
#   5. the telemetry plane across the fork boundary;
#   6. a fault recorded inside a worker reaches the parent: a sharded
#      daemon that answered one unparseable program drains with exit 3
#      and names the program in its stderr fault summary.
set -eu

BIN="${1:-./_build/default/bin/main.exe}"
dir="$(mktemp -d)"
trap 'rm -rf "$dir"' EXIT

fail () { echo "durability_smoke: FAIL: $1" >&2; exit 1; }

wait_path () { # path
  _i=0
  while [ ! -e "$1" ]; do
    _i=$((_i + 1))
    [ "$_i" -lt 100 ] || fail "timed out waiting for $1"
    sleep 0.1
  done
}

src='int f(int x) { return x + 1; }\nint main() { return f(3); }\n'

cat > "$dir/analyze.session" <<EOF
{"id":1,"op":"analyze","name":"dur","source":"$src"}
EOF
cat > "$dir/stats.session" <<'EOF'
{"id":2,"op":"stats"}
EOF

# --- leg 1: cold then warm through the socket -------------------------
"$BIN" serve --socket "$dir/sock" --store "$dir/store" --workers 2 \
  > /dev/null 2> "$dir/daemon1.err" &
srv=$!
wait_path "$dir/sock"

"$BIN" serve --connect "$dir/sock" < "$dir/analyze.session" > "$dir/cold.out"
grep -q '"ok":true' "$dir/cold.out"           || fail "cold analyze not ok"
grep -q '"program_hit":false' "$dir/cold.out" || fail "cold analyze claims a hit"

"$BIN" serve --connect "$dir/sock" < "$dir/analyze.session" > "$dir/warm.out"
grep -q '"program_hit":true' "$dir/warm.out"  || fail "warm analyze missed"
grep -q '"fn_misses":0' "$dir/warm.out"       || fail "warm analyze recomputed"

# --- leg 2: SIGKILL, restart over the same store, still warm ----------
kill -KILL "$srv"
rc=0; wait "$srv" || rc=$?
[ "$rc" -ne 0 ] || fail "SIGKILL reported a clean exit"
sleep 0.3   # orphaned workers see EOF and finish on their own
[ -f "$dir/store/shard-0/journal.bin" ] || fail "shard 0 journal missing after SIGKILL"

# a SIGKILLed daemon leaves its socket file behind; clear it so the
# path reappearing means the *new* daemon is accepting
rm -f "$dir/sock"
"$BIN" serve --socket "$dir/sock" --store "$dir/store" --workers 2 \
  > /dev/null 2> "$dir/daemon2.err" &
srv=$!
wait_path "$dir/sock"

"$BIN" serve --connect "$dir/sock" < "$dir/analyze.session" > "$dir/restart.out"
grep -q '"ok":true' "$dir/restart.out"     || fail "post-restart analyze not ok"
grep -q '"fn_misses":0' "$dir/restart.out" || fail "restart recomputed functions"
cold_scores="$(sed 's/.*"scores"://' "$dir/cold.out")"
restart_scores="$(sed 's/.*"scores"://' "$dir/restart.out")"
[ "$cold_scores" = "$restart_scores" ]     || fail "restart scores differ from cold"

"$BIN" serve --connect "$dir/sock" < "$dir/stats.session" > "$dir/stats.out"
restored="$(sed -n 's/.*"restored":\([0-9][0-9]*\).*/\1/p' "$dir/stats.out")"
[ -n "$restored" ] && [ "$restored" -gt 0 ] || fail "stats reports no restored entries"

# --- leg 3: SIGTERM drains cleanly ------------------------------------
kill -TERM "$srv"
rc=0; wait "$srv" || rc=$?
[ "$rc" -eq 0 ]            || fail "healthy drain exited $rc (want 0)"
[ ! -e "$dir/sock" ]       || fail "socket file survived the drain"

# --- leg 4: chaos worker-kill is deterministic ------------------------
cat > "$dir/chaos.session" <<'EOF'
{"id":1,"op":"analyze","name":"prog-a","source":"int main() { return 1; }\n"}
{"id":2,"op":"analyze","name":"prog-b","source":"int main() { return 2; }\n"}
{"id":3,"op":"analyze","name":"prog-c","source":"int main() { return 3; }\n"}
{"id":4,"op":"analyze","name":"prog-d","source":"int main() { return 4; }\n"}
{"id":5,"op":"analyze","name":"prog-e","source":"int main() { return 5; }\n"}
{"id":6,"op":"analyze","name":"prog-f","source":"int main() { return 6; }\n"}
{"id":7,"op":"analyze","name":"prog-g","source":"int main() { return 7; }\n"}
{"id":8,"op":"analyze","name":"prog-h","source":"int main() { return 8; }\n"}
EOF

chaos_run () { # out-file; writes doomed ids to $1.doomed, drain rc to $1.rc
  "$BIN" serve --socket "$dir/sock" --workers 2 --chaos 42 \
    > /dev/null 2> "$dir/chaos.err" &
  srv=$!
  wait_path "$dir/sock"
  "$BIN" serve --connect "$dir/sock" < "$dir/chaos.session" > "$1"
  kill -TERM "$srv"
  chaos_rc=0; wait "$srv" || chaos_rc=$?
  echo "$chaos_rc" > "$1.rc"
  grep '"worker_lost":true' "$1" | sed -n 's/.*"id":\([0-9]*\).*/\1/p' \
    > "$1.doomed" || true
}

chaos_run "$dir/chaos1.out"
chaos_run "$dir/chaos2.out"
doomed1="$(cat "$dir/chaos1.out.doomed")"
doomed2="$(cat "$dir/chaos2.out.doomed")"
rc1="$(cat "$dir/chaos1.out.rc")"
rc2="$(cat "$dir/chaos2.out.rc")"

[ -n "$doomed1" ]           || fail "seed 42 doomed no request"
[ "$doomed1" = "$doomed2" ] || fail "chaos doom set differs across runs: [$doomed1] vs [$doomed2]"
[ "$rc1" -eq 3 ]            || fail "chaos drain exited $rc1 (want degraded 3)"
[ "$rc2" -eq 3 ]            || fail "second chaos drain exited $rc2 (want degraded 3)"
n_ok="$(grep -c '"ok":true' "$dir/chaos1.out" || true)"
[ "$n_ok" -gt 0 ]           || fail "chaos killed every request, not just the doomed"

# --- leg 5: the telemetry plane across the fork boundary --------------
# A sharded daemon with the slow threshold forced to zero: every
# request lands in the slow log with a span tree merged from parent
# and worker processes, and the metrics verb returns one snapshot
# whose request histogram counts exactly the requests served.
rm -f "$dir/sock"
"$BIN" serve --socket "$dir/sock" --workers 2 --slow-ms 0 \
  --slow-log "$dir/slow.ndjson" > /dev/null 2> "$dir/telemetry.err" &
srv=$!
wait_path "$dir/sock"

"$BIN" serve --connect "$dir/sock" < "$dir/chaos.session" > "$dir/telemetry.out"
n_served="$(grep -c '"ok":true' "$dir/telemetry.out" || true)"
[ "$n_served" -eq 8 ] || fail "telemetry daemon served $n_served of 8 requests"

printf '{"id":9,"op":"metrics"}\n' \
  | "$BIN" serve --connect "$dir/sock" > "$dir/metrics.out"
grep -q '"ok":true' "$dir/metrics.out"   || fail "metrics verb not ok"
grep -q '"schema":2' "$dir/metrics.out"  || fail "metrics snapshot lacks its schema version"
grep -q '"workers":2' "$dir/metrics.out" || fail "metrics snapshot lacks the worker count"
req_count="$(sed -n 's/.*"serve\.request\.ns":{"count":\([0-9][0-9]*\).*/\1/p' "$dir/metrics.out")"
[ "$req_count" = "8" ] || fail "serve.request.ns counted $req_count requests (want 8)"

kill -TERM "$srv"
rc=0; wait "$srv" || rc=$?
[ "$rc" -eq 0 ] || fail "telemetry daemon drained with exit $rc (want 0)"

[ -s "$dir/slow.ndjson" ] || fail "forced-slow requests left no slow log"
grep -q '"label":"request"' "$dir/slow.ndjson" \
  || fail "slow entries lack the parent-side span"
grep -q '"label":"worker:' "$dir/slow.ndjson" \
  || fail "slow entries lack the worker-side spans"

# --- leg 6: a worker's fault reaches the parent ------------------------
rm -f "$dir/sock"
"$BIN" serve --socket "$dir/sock" --workers 2 \
  > /dev/null 2> "$dir/degraded.err" &
srv=$!
wait_path "$dir/sock"
printf '{"id":1,"op":"analyze","name":"broken-in-worker","source":"int main( {"}\n' \
  | "$BIN" serve --connect "$dir/sock" > "$dir/degraded.out"
grep -q '"ok":false' "$dir/degraded.out" || fail "broken program did not fault"
kill -TERM "$srv"
rc=0; wait "$srv" || rc=$?
[ "$rc" -eq 3 ] || fail "sharded degraded drain exited $rc (want 3)"
grep -q 'broken-in-worker' "$dir/degraded.err" \
  || fail "the worker's fault is missing from the daemon's stderr summary"

echo "durability_smoke: OK (restored=$restored, doomed ids: $(echo $doomed1 | tr '\n' ' '), slow entries: $(wc -l < "$dir/slow.ndjson"))"
