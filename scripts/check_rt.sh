#!/usr/bin/env bash
# Real-time crash-recovery smoke test (registered with ctest as
# `check_rt_smoke`): exercises the durability contract of
# docs/INDEXING.md over the real binaries — start `gks serve --rt`,
# insert documents over the wire, flush some and leave others WAL-only,
# delete one, then kill -9 the server and restart it on the same
# directory. The recovered server must answer queries with exactly the
# committed state (replayed from the WAL over the flushed segments) and
# keep taking writes.
#
# Usage: check_rt.sh <gks-binary>

set -euo pipefail

gks="${1:?usage: check_rt.sh <gks-binary>}"

work="$(mktemp -d)"
server_pid=""
cleanup() {
  [[ -n "$server_pid" ]] && kill -9 "$server_pid" 2>/dev/null || true
  rm -rf "$work"
}
trap cleanup EXIT

fail() { echo "check_rt: FAILED — $*" >&2; exit 1; }

# Start a server over $work/rt and set $port; $1 names the log files.
start_server() {
  "$gks" serve --rt="$work/rt" --port=0 --threads=2 \
      > "$work/$1.log" 2> "$work/$1.err" &
  server_pid=$!
  port=""
  for _ in $(seq 1 100); do
    port=$(sed -nE 's/.*listening on [0-9.]+:([0-9]+).*/\1/p' \
           "$work/$1.log" | head -1)
    [[ -n "$port" ]] && break
    kill -0 "$server_pid" 2>/dev/null \
      || fail "server exited early: $(cat "$work/$1.err")"
    sleep 0.1
  done
  [[ -n "$port" ]] || fail "no 'listening on' line in $(cat "$work/$1.log")"
}

run_client() { "$gks" client --host=127.0.0.1 --port="$port" "$@"; }

# Distinctive one-word keys so each query matches exactly one document.
for word in quartz basalt granite marble; do
  printf '<book><title>%s reference</title><author>doe</author></book>' \
      "$word" > "$work/$word.xml"
done

start_server serve1

# Two documents flushed to an on-disk segment...
run_client --insert-file="$work/quartz.xml" | grep -q "inserted quartz.xml" \
  || fail "insert quartz not acknowledged"
run_client --insert-file="$work/basalt.xml" > /dev/null \
  || fail "insert basalt failed"
run_client --admin=flush | grep -q "status: flushed" \
  || fail "flush not acknowledged"
# ...one WAL-only (never flushed before the crash)...
run_client --insert-file="$work/granite.xml" > /dev/null \
  || fail "insert granite failed"
# ...and one delete (of a flushed document, masking a disk segment).
run_client --delete=basalt.xml | grep -q "delete basalt.xml: deleted" \
  || fail "delete basalt not acknowledged"

run_client --query="granite" | grep -q ", 1 nodes" \
  || fail "granite not visible before the crash"

# The crash: no drain, no flush, no goodbye.
kill -9 "$server_pid"
wait "$server_pid" 2>/dev/null || true
server_pid=""

start_server serve2

# Exactly the committed state: the flushed survivor, the WAL-only
# document, and not the deleted one.
run_client --query="quartz"  | grep -q ", 1 nodes" \
  || fail "flushed document lost in the crash"
run_client --query="granite" | grep -q ", 1 nodes" \
  || fail "WAL-only document lost in the crash (replay broken)"
run_client --query="basalt"  | grep -q ", 0 nodes" \
  || fail "deleted document came back after the crash"
run_client --admin=stats > "$work/stats.out" \
  || fail "stats failed after recovery"
grep -Eq "replayed=[1-9]" "$work/stats.out" \
  || fail "recovery did not replay any WAL records: $(cat "$work/stats.out")"

# The recovered server keeps taking writes.
run_client --insert-file="$work/marble.xml" > /dev/null \
  || fail "insert after recovery failed"
run_client --query="marble" | grep -q ", 1 nodes" \
  || fail "post-recovery insert not visible"

# And this time, a clean exit.
run_client --admin=quit | grep -q "status: draining" \
  || fail "quit was not acknowledged with draining"
server_exit=0
wait "$server_pid" || server_exit=$?
server_pid=""
[[ "$server_exit" -eq 0 ]] || fail "server exited $server_exit after quit"

echo "check_rt: OK (port $port; kill -9 + WAL replay round-trip)"
