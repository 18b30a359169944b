#!/usr/bin/env bash
# End-to-end smoke test of the hypo_serve line protocol: drive one
# scripted insert/retract/query session against a built binary and check
# every response, including that the incremental answers track the epoch
# turns and that the process shuts down cleanly. Also checks that
# hypo_cli rejects an unknown engine name as a usage error.
#
# Usage: scripts/server_smoke.sh [build_dir]   (default: build)
set -euo pipefail
cd "$(dirname "$0")/.."

build="${1:-build}"
serve="$build/examples/hypo_serve"
cli="$build/examples/hypo_cli"
for bin in "$serve" "$cli"; do
  [ -x "$bin" ] || { echo "missing $bin (build first)" >&2; exit 2; }
done

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

cat > "$tmp/program.hdl" <<'EOF'
reach(X, Y) <- edge(X, Y).
reach(X, Z) <- edge(X, Y), reach(Y, Z).
edge(a, b).
edge(b, c).
EOF

# An unknown engine name: exit 2 (usage error) with the server's message.
rc=0
"$cli" "$tmp/program.hdl" --engine nosuch -q "reach(a, X)" \
  > /dev/null 2> "$tmp/cli_stderr" || rc=$?
if [ "$rc" -ne 2 ] || ! grep -q 'unknown engine "nosuch"' "$tmp/cli_stderr"; then
  echo "hypo_cli --engine nosuch exited $rc, want 2 and the engine error:" >&2
  cat "$tmp/cli_stderr" >&2
  exit 1
fi

cat > "$tmp/session" <<'EOF'
ping
query reach(a, X)
insert edge(c, d)
query reach(a, d)
retract edge(a, b)
query reach(a, X)
begin
insert edge(a, b)
retract edge(b, c)
commit
query reach(a, X)
epoch
stats
shutdown
EOF

cat > "$tmp/expected" <<'EOF'
ok pong
ok 2 answers
- X=b
- X=c
ok epoch=2 changed=1
ok yes
ok epoch=3 changed=1
ok 0 answers
ok batch
ok queued
ok queued
ok epoch=4 changed=2
ok 1 answers
- X=b
ok epoch=4
ok bye
EOF

rc=0
"$serve" "$tmp/program.hdl" --engine bottomup --pool 2 \
  < "$tmp/session" > "$tmp/got" 2> "$tmp/stderr" || rc=$?
if [ "$rc" -ne 0 ]; then
  echo "hypo_serve exited $rc" >&2
  cat "$tmp/stderr" >&2
  exit 1
fi

# The stats line carries live counters (timings vary); check it separately.
grep -E '^ok epoch=4 queries=4 mutations=3 ' "$tmp/got" > /dev/null || {
  echo "stats line mismatch:" >&2
  grep '^ok epoch=4 queries' "$tmp/got" >&2 || true
  exit 1
}
grep -v '^ok epoch=4 queries=' "$tmp/got" | diff -u "$tmp/expected" - || {
  echo "session transcript mismatch (see diff above)" >&2
  exit 1
}

# Scenario 2: repeated queries across epochs against a restricted program,
# with the cross-query cache on (default) and off (--no-cross-cache). The
# answer transcripts must be identical either way; the stats line must
# surface the new counters, and the undeclared hypothetical must be
# rejected with the typed error without killing the session.
cat > "$tmp/program2.hdl" <<'EOF'
:- assumable edge/2.
reach(X, Y) <- edge(X, Y).
reach(X, Z) <- edge(X, Y), reach(Y, Z).
edge(a, b).
edge(b, c).
EOF

cat > "$tmp/session2" <<'EOF'
query reach(a, X)
query reach(a, X)
query reach(a, c)[add: edge(x, y)]
query reach(a, c)[add: reach(x, y)]
insert edge(c, d)
query reach(a, X)
query reach(a, X)
stats
shutdown
EOF

cat > "$tmp/expected2" <<'EOF'
ok 2 answers
- X=b
- X=c
ok 2 answers
- X=b
- X=c
ok yes
ok epoch=2 changed=1
ok 3 answers
- X=b
- X=c
- X=d
ok 3 answers
- X=b
- X=c
- X=d
ok bye
EOF

for flags in "" "--no-cross-cache"; do
  rc=0
  # shellcheck disable=SC2086  # $flags is intentionally word-split.
  "$serve" "$tmp/program2.hdl" --engine bottomup --pool 2 $flags \
    < "$tmp/session2" > "$tmp/got2" 2> "$tmp/stderr2" || rc=$?
  if [ "$rc" -ne 0 ]; then
    echo "hypo_serve ($flags) exited $rc" >&2
    cat "$tmp/stderr2" >&2
    exit 1
  fi
  grep '^err FailedPrecondition: hypothetical insertion of restricted' \
    "$tmp/got2" > /dev/null || {
    echo "missing typed restricted-predicate rejection ($flags):" >&2
    cat "$tmp/got2" >&2
    exit 1
  }
  # No trailing anchor: the stats line has grown fields past these since.
  grep -E '^ok epoch=2 .* cache_hits_cross_query=[0-9]+ contexts_reused=[0-9]+ restricted_rejections=1( |$)' \
    "$tmp/got2" > /dev/null || {
    echo "stats line missing cross-query counters ($flags):" >&2
    grep '^ok epoch=2 queries' "$tmp/got2" >&2 || true
    exit 1
  }
  grep -v -e '^ok epoch=2 queries=' -e '^err FailedPrecondition' "$tmp/got2" \
    | diff -u "$tmp/expected2" - || {
    echo "restricted-session transcript mismatch ($flags, see diff above)" >&2
    exit 1
  }
done

# The escape hatch really disables the board: no cross-query hits.
"$serve" "$tmp/program2.hdl" --engine bottomup --pool 2 --no-cross-cache \
  < "$tmp/session2" 2> /dev/null \
  | grep -E '^ok epoch=2 .* cache_hits_cross_query=0 ' > /dev/null || {
  echo "--no-cross-cache still reported cross-query cache hits" >&2
  exit 1
}

# Scenario 3: crash safety. Run a durable server, SIGKILL it after two
# acknowledged mutations (no shutdown, no final checkpoint), restart on
# the same --data-dir, and require the acknowledged state back: the
# journal replay is the only thing standing between the ack and the kill.
data="$tmp/data3"
mkfifo "$tmp/in3"
"$serve" "$tmp/program.hdl" --engine bottomup --data-dir "$data" \
  < "$tmp/in3" > "$tmp/got3" 2> "$tmp/stderr3" &
pid=$!
exec 3> "$tmp/in3"
echo "insert edge(c, d)" >&3
echo "insert edge(d, e)" >&3
# Wait for both acks (fsync=always: acked means journaled) before killing.
acked=0
for _ in $(seq 100); do
  if grep -q '^ok epoch=3 ' "$tmp/got3" 2>/dev/null; then acked=1; break; fi
  sleep 0.1
done
[ "$acked" -eq 1 ] || {
  echo "durable mutations were never acknowledged:" >&2
  cat "$tmp/got3" "$tmp/stderr3" >&2 || true
  exit 1
}
kill -9 "$pid" 2>/dev/null || true
wait "$pid" 2>/dev/null || true
exec 3>&-

cat > "$tmp/session3" <<'EOF'
epoch
query reach(a, X)
insert edge(e, f)
stats
shutdown
EOF
rc=0
"$serve" "$tmp/program.hdl" --engine bottomup --data-dir "$data" \
  < "$tmp/session3" > "$tmp/got4" 2> "$tmp/stderr4" || rc=$?
if [ "$rc" -ne 0 ]; then
  echo "recovered hypo_serve exited $rc" >&2
  cat "$tmp/stderr4" >&2
  exit 1
fi
grep -q '^ok epoch=3$' "$tmp/got4" || {
  echo "recovery lost the killed server's epoch:" >&2
  cat "$tmp/got4" >&2
  exit 1
}
grep -q '^ok 4 answers$' "$tmp/got4" || {
  echo "recovered reach(a, X) answer count wrong:" >&2
  cat "$tmp/got4" >&2
  exit 1
}
for v in b c d e; do
  grep -q "^- X=$v\$" "$tmp/got4" || {
    echo "recovered answers missing X=$v:" >&2
    cat "$tmp/got4" >&2
    exit 1
  }
done
grep -q '^ok epoch=4 changed=1$' "$tmp/got4" || {
  echo "recovered server refused a new mutation:" >&2
  cat "$tmp/got4" >&2
  exit 1
}
grep -E '^ok epoch=4 .* recoveries=1 .*read_only=0$' "$tmp/got4" > /dev/null || {
  echo "stats line missing recovery counters:" >&2
  grep '^ok epoch=4 queries' "$tmp/got4" >&2 || true
  exit 1
}

echo "server smoke: OK"
