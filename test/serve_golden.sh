#!/bin/sh
# Golden transcripts for the serve daemon. Scripted sessions are
# replayed over each carrier -- stdio in-process ("stdio"), a Unix
# socket in-process ("socket") and a Unix socket with two supervised
# workers ("workers2") -- and every response line is compared byte for
# byte with test/golden/<session>.<carrier>.ndjson. Only the fields that
# vary from run to run are masked first: git_rev, the values under
# "hists", and the "ms"/"tree" fields of slow-log entries. Each
# transcript ends with one line of exit codes (the daemon's, and for the
# socket carriers the scripting client's). Daemons run at --jobs 1, or
# at the $jobs a session sets.
#
#   sh test/serve_golden.sh [BIN]            compare; exit 1 on a difference
#   sh test/serve_golden.sh [BIN] --update   rewrite the golden files
#
# On a difference the unified diffs go to stderr, and also to the file
# named by $GOLDEN_DIFF when it is set.
set -eu

BIN="${1:-./_build/default/bin/main.exe}"
MODE="${2:-check}"
golden="$(dirname "$0")/golden"
dir="$(mktemp -d)"
trap 'rm -rf "$dir"' EXIT

fail () { echo "serve_golden: FAIL: $1" >&2; exit 1; }

# --- sessions ----------------------------------------------------------

cat > "$dir/healthy.in" <<'EOF'
{"id":1,"op":"analyze","name":"g","source":"int f(int x) { return x + 1; }\nint main() { return f(3); }\n"}
{"id":2,"op":"analyze","name":"h","source":"int main() { int i; int s; s = 0; for (i = 0; i < 10; i = i + 1) { if (i % 3 == 0) s = s + i; } return s; }\n","runs":[{"argv":[],"input":""}]}

{"id":3,"op":"analyze","name":"g","source":"int f(int x) { return x + 1; }\nint main() { return f(3); }\n"}

{"id":4,"op":"analyze","name":"g","source":"int f(int x) { return x + 1; }\nint main() { return f(3); }\nint probe(int x) { return x * 7; }\n"}

{"id":5,"op":"analyze","name":"g","source":"int f(int x) { return x + 1; }\nint main() { return f(3); }\n"}

{"id":6,"op":"scores","name":"g"}
{"id":7,"op":"invalidate","name":"g"}
{"id":8,"op":"scores","name":"g"}
{"id":9,"op":"resize","jobs":1}

{"id":10,"op":"stats"}
{"id":11,"op":"invalidate"}
{"id":12,"op":"stats"}

{"id":13,"op":"shutdown"}
EOF

cat > "$dir/malformed.in" <<'EOF'
this is not json
{"op":"frobnicate"}
{"id":3,"name":"no_op_field"}
{"id":4,"op":"analyze","name":"p","source":"int main() { return 0; }\n"}
{"id":5,"op":"analyze","source":"int main() { return 0; }\n"}
{"id":6,"op":"analyze","name":"nosrc"}
{"id":7,"op":"analyze","name":"k","source":"int main() { return 0; }\n","kinds":["bogus"]}
{"id":8,"op":"analyze","name":"bad","source":"int main( {"}
{"id":9,"op":"scores"}
{"id":10,"op":"resize"}
{"id":11,"op":"stats"}

{"id":12,"op":"stats"}

{"id":13,"op":"shutdown"}
EOF

cat > "$dir/midshutdown.in" <<'EOF'
{"id":1,"op":"analyze","name":"p","source":"int main() { return 0; }\n"}
{"id":2,"op":"shutdown"}
{"id":3,"op":"analyze","name":"q","source":"int main() { return 0; }\n"}

{"id":4,"op":"analyze","name":"r","source":"int main() { return 0; }\n"}
EOF

cat > "$dir/shed.in" <<'EOF'
{"id":1,"op":"analyze","name":"s1","source":"int main() { return 1; }\n"}
{"id":2,"op":"analyze","name":"s2","source":"int main() { return 2; }\n"}
{"id":3,"op":"analyze","name":"s3","source":"int main() { return 3; }\n"}

{"id":4,"op":"analyze","name":"s4","source":"int main() { return 4; }\n"}

{"id":5,"op":"shutdown"}
EOF

cat > "$dir/chaos.in" <<'EOF'
{"id":1,"op":"analyze","name":"prog-a","source":"int main() { return 1; }\n"}
{"id":2,"op":"analyze","name":"prog-b","source":"int main() { return 2; }\n"}
{"id":3,"op":"analyze","name":"prog-c","source":"int main() { return 3; }\n"}
{"id":4,"op":"analyze","name":"prog-d","source":"int main() { return 4; }\n"}
{"id":5,"op":"analyze","name":"prog-e","source":"int main() { return 5; }\n"}
{"id":6,"op":"analyze","name":"prog-f","source":"int main() { return 6; }\n"}
{"id":7,"op":"analyze","name":"prog-g","source":"int main() { return 7; }\n"}
{"id":8,"op":"analyze","name":"prog-h","source":"int main() { return 8; }\n"}
{"id":9,"op":"stats"}

{"id":10,"op":"stats"}

{"id":11,"op":"shutdown"}
EOF

cat > "$dir/metrics.in" <<'EOF'
{"id":1,"op":"analyze","name":"m","source":"int f(int x) { return x + 1; }\nint main() { return f(3); }\n"}

{"id":2,"op":"scores","name":"m"}

{"id":3,"op":"metrics"}

{"id":4,"op":"shutdown"}
EOF

# Two analyzes of one name in one batch, run at --jobs 2: the first is
# the slower, and [scores] must still return the second's.
cat > "$dir/samename.in" <<'EOF'
{"id":1,"op":"analyze","name":"o","source":"int main() { int i; int s; s = 0; for (i = 0; i < 3000000; i = i + 1) { if (i % 3 == 0) s = s + 1; } return s % 7; }\n","runs":[{"argv":[],"input":""}]}
{"id":2,"op":"analyze","name":"o","source":"int g(int x) { if (x > 2) return 1; return 0; }\nint main() { return g(1); }\n","runs":[{"argv":[],"input":""}]}

{"id":3,"op":"scores","name":"o"}

{"id":4,"op":"shutdown"}
EOF

# --- normalizing -------------------------------------------------------

# Textual masks, so every other byte of a response is compared as the
# daemon wrote it.
normalize () {
  python3 -c '
import json, sys

dec = json.JSONDecoder()

def mask(line, key, repl):
    pat = "\"%s\":" % key
    out, i = [], 0
    while True:
        j = line.find(pat, i)
        if j < 0:
            out.append(line[i:])
            return "".join(out)
        k = j + len(pat)
        value, end = dec.raw_decode(line, k)
        out.append(line[i:k])
        out.append(repl(value))
        i = end

star = lambda _: "\"*\""
hists = lambda h: "{" + ",".join("\"%s\":\"*\"" % k for k in h) + "}"
for line in sys.stdin:
    line = line.rstrip("\n")
    for key, repl in (("hists", hists), ("tree", star), ("ms", star),
                      ("git_rev", star)):
        line = mask(line, key, repl)
    print(line)
'
}

# --- carriers ----------------------------------------------------------

wait_path () {
  _i=0
  while [ ! -e "$1" ]; do
    _i=$((_i + 1))
    [ "$_i" -lt 300 ] || fail "timed out waiting for $1"
    sleep 0.1
  done
}

run_stdio () { # session flags...
  s="$1"; shift
  rc=0
  timeout 60 "$BIN" serve --jobs "$jobs" "$@" < "$dir/$s.in" > "$dir/out" \
    2> /dev/null || rc=$?
  { normalize < "$dir/out"; echo "{\"daemon_exit\":$rc}"; } \
    > "$dir/$s.stdio.ndjson"
}

run_socket () { # carrier session flags...
  c="$1"; s="$2"; shift 2
  rm -f "$dir/sock"
  timeout 60 "$BIN" serve --jobs "$jobs" --socket "$dir/sock" "$@" \
    > /dev/null 2> /dev/null &
  srv=$!
  wait_path "$dir/sock"
  crc=0
  timeout 60 "$BIN" serve --connect "$dir/sock" < "$dir/$s.in" \
    > "$dir/out" 2> /dev/null || crc=$?
  # Every session ends in a shutdown: the daemon exits on its own.
  drc=0
  wait "$srv" || drc=$?
  { normalize < "$dir/out"
    echo "{\"client_exit\":$crc,\"daemon_exit\":$drc}"; } \
    > "$dir/$s.$c.ndjson"
}

for s in healthy malformed midshutdown metrics shed samename; do
  jobs=1
  case "$s" in
    samename) jobs=2; flags="" ;;
    shed) flags="--queue-limit 2" ;;
    metrics) flags="--slow-ms 0" ;;
    *) flags="" ;;
  esac
  # shellcheck disable=SC2086
  run_stdio "$s" $flags
  # shellcheck disable=SC2086
  run_socket socket "$s" $flags
  # shellcheck disable=SC2086
  run_socket workers2 "$s" --workers 2 $flags
done
jobs=1
run_socket workers2 chaos --workers 2 --chaos 42

# --- compare -----------------------------------------------------------

n=0
: > "$dir/diffs"
for t in "$dir"/*.ndjson; do
  name="$(basename "$t")"
  n=$((n + 1))
  if [ "$MODE" = "--update" ]; then
    cp "$t" "$golden/$name"
  elif [ ! -f "$golden/$name" ]; then
    echo "missing golden file $name" >> "$dir/diffs"
  else
    diff -u "$golden/$name" "$t" >> "$dir/diffs" || true
  fi
done

if [ -s "$dir/diffs" ]; then
  cat "$dir/diffs" >&2
  [ -z "${GOLDEN_DIFF:-}" ] || cp "$dir/diffs" "$GOLDEN_DIFF"
  fail "transcripts differ from $golden"
fi
[ "$MODE" = "--update" ] && echo "serve_golden: wrote $n transcripts" \
  || echo "serve_golden: OK ($n transcripts)"
