#!/usr/bin/env bash
# Server smoke test (registered with ctest as `check_server_smoke`):
# exercises the real binaries end to end — generate a small DBLP corpus,
# index it, start `gks serve` on an ephemeral port, then drive it with
# gks_client: single queries, a load run across several connections, the
# admin verbs (health/stats/metrics), a hot reload (epoch must advance),
# and finally `quit`, after which the server process must exit 0 having
# drained cleanly. A second server runs the live rebuild drill: `gks index`
# rewrites the file it has loaded, and it must keep serving the old answer
# until a reload.
#
# Usage: check_server.sh <gks-binary> <gks_client-binary>

set -euo pipefail

gks="${1:?usage: check_server.sh <gks-binary> <gks_client-binary>}"
client="${2:?usage: check_server.sh <gks-binary> <gks_client-binary>}"

work="$(mktemp -d)"
server_pid=""
cleanup() {
  [[ -n "$server_pid" ]] && kill "$server_pid" 2>/dev/null || true
  rm -rf "$work"
}
trap cleanup EXIT

fail() { echo "check_server: FAILED — $*" >&2; exit 1; }

"$gks" generate dblp "$work/dblp.xml" --scale=0.02 >/dev/null
"$gks" index "$work/dblp.gksidx" "$work/dblp.xml" >/dev/null

# Unknown flags are usage errors, caught before any work: a stale
# --format must not silently write the one format there is.
expect_usage_error() {
  local exit_code=0
  "$gks" "$@" >/dev/null 2>&1 || exit_code=$?
  [[ "$exit_code" -eq 2 ]] || fail "gks $* exited $exit_code, want 2"
}
expect_usage_error index "$work/rejected.gksidx" "$work/dblp.xml" --format=v1
expect_usage_error shard "$work/rejected" "$work/dblp.xml" --format=v1
[[ ! -e "$work/rejected.gksidx" && ! -e "$work/rejected" ]] \
  || fail "a rejected command wrote its output"
# The removed --mmap flag fails every reader command, and `gks serve`
# before it binds: a server that ignored the flag would be listening (the
# timeout turns that into a failure instead of a hang).
printf 'database\n' > "$work/mmap_queries.txt"
expect_usage_error search "$work/dblp.gksidx" database --mmap
expect_usage_error batch "$work/dblp.gksidx" "$work/mmap_queries.txt" --mmap
expect_usage_error analyze "$work/dblp.gksidx" database --mmap
expect_usage_error schema "$work/dblp.gksidx" --mmap
expect_usage_error stats "$work/dblp.gksidx" --mmap
serve_exit=0
timeout 10 "$gks" serve "$work/dblp.gksidx" --mmap --port=0 \
  > "$work/mmap_serve.log" 2>&1 || serve_exit=$?
[[ "$serve_exit" -eq 2 ]] \
  || fail "gks serve --mmap exited $serve_exit, want 2"
! grep -q "listening on" "$work/mmap_serve.log" \
  || fail "gks serve --mmap started listening"

# Starts `gks serve <args>` in the background and sets server_pid and
# port. --port=0: the kernel picks; parse the bound port from the startup
# line ("listening on <host>:<port>" is a stable contract of `gks serve`).
start_server() {
  "$gks" serve "$@" --port=0 > "$work/serve.log" 2> "$work/serve.err" &
  server_pid=$!
  port=""
  for _ in $(seq 1 100); do
    port=$(sed -nE 's/.*listening on [0-9.]+:([0-9]+).*/\1/p' \
           "$work/serve.log" | head -1)
    [[ -n "$port" ]] && break
    kill -0 "$server_pid" 2>/dev/null \
      || fail "server exited early: $(cat "$work/serve.err")"
    sleep 0.1
  done
  [[ -n "$port" ]] || fail "no 'listening on' line in $(cat "$work/serve.log")"
}

# Quit: the server acknowledges, drains, and exits 0.
quit_server() {
  run_client --admin=quit | grep -q "status: draining" \
    || fail "quit was not acknowledged with draining"
  local server_exit=0
  wait "$server_pid" || server_exit=$?
  server_pid=""
  [[ "$server_exit" -eq 0 ]] || fail "server exited $server_exit after quit"
  grep -q "drained" "$work/serve.log" || fail "no drain summary in server log"
}

run_client() { "$client" --host=127.0.0.1 --port="$port" "$@"; }

start_server "$work/dblp.gksidx" --threads=2

# Single query round-trip.
run_client --query="database" --s=1 --top=5 > "$work/query.out" \
  || fail "query failed: $(cat "$work/query.out")"
grep -q "epoch" "$work/query.out" || fail "query output lacks an epoch"

# Admin verbs.
run_client --admin=health | grep -q "status: serving" \
  || fail "health did not report serving"
run_client --admin=stats | grep -q "postings" \
  || fail "stats did not report postings"
run_client --admin=metrics | grep -q "gks.server.requests_total" \
  || fail "metrics snapshot lacks gks.server.requests_total"

# Load run: 4 connections x 50 requests; the client exits non-zero unless
# every response arrived, parsed, and was ok/overloaded/deadline.
printf 'database\nxml keyword search\n"Peter Buneman"\n' > "$work/queries.txt"
run_client --queries="$work/queries.txt" --connections=4 --requests=50 \
    > "$work/load.out" || fail "load run not clean: $(cat "$work/load.out")"

# Hot reload must advance the epoch and keep serving.
epoch_before=$(run_client --admin=health | sed -n 's/^epoch : //p')
run_client --admin=reload | grep -q "status: reloaded" \
  || fail "reload was not acknowledged"
epoch_after=$(run_client --admin=health | sed -n 's/^epoch : //p')
[[ "$epoch_after" -gt "$epoch_before" ]] \
  || fail "epoch did not advance across reload ($epoch_before -> $epoch_after)"
run_client --query="database" >/dev/null || fail "query after reload failed"

# SIGHUP is the same reload on the signal path.
kill -HUP "$server_pid"
for _ in $(seq 1 50); do
  grep -q "reloaded" "$work/serve.err" && break
  sleep 0.1
done
grep -q "reloaded" "$work/serve.err" || fail "SIGHUP reload never logged"

quit_server

# Live rebuild drill. `gks index` replaces the file a running server has
# loaded, first with a smaller index, then with a larger one. The server
# answers from the index it loaded, so it must give the old answer at the
# old epoch until a reload moves it to the new file. --cache=0 makes every
# query run a search.
"$gks" generate dblp "$work/small.xml" --scale=0.005 >/dev/null
"$gks" generate dblp "$work/large.xml" --scale=0.04 >/dev/null
drill_query="xml data"
# Node count, |S_L| and node lines, without epoch, timing or file name.
answer() {
  sed -nE 's/^(epoch [0-9]+, )?([0-9]+ nodes \(\|S_L\|=[0-9]+).*/\2/p
           s/^(  <.*\}).*/\1/p' "$1"
}
epoch_of() { sed -nE 's/^epoch ([0-9]+),.*/\1/p' "$1"; }
drill() { run_client --query="$drill_query" --s=1 --top=5 > "$work/$1.out"; }

start_server "$work/dblp.gksidx" --cache=0 --threads=2
drill loaded || fail "query on the loaded index failed"
want="$(answer "$work/loaded.out")"
loaded_epoch="$(epoch_of "$work/loaded.out")"
[[ -n "$want" && -n "$loaded_epoch" ]] || fail "no answer to '$drill_query'"
for corpus in small large; do
  "$gks" index "$work/dblp.gksidx" "$work/$corpus.xml" >/dev/null \
    || fail "rebuild over $corpus.xml failed"
  drill "after_$corpus" \
    || fail "query after the $corpus rebuild failed (server: $(tail -n 3 \
            "$work/serve.err"))"
  [[ "$(answer "$work/after_$corpus.out")" == "$want" ]] \
    || fail "answer changed without a reload after the $corpus rebuild"
  [[ "$(epoch_of "$work/after_$corpus.out")" == "$loaded_epoch" ]] \
    || fail "epoch changed without a reload after the $corpus rebuild"
done
run_client --admin=reload | grep -q "status: reloaded" \
  || fail "reload after the rebuilds was not acknowledged"
drill reloaded || fail "query after the reload failed"
[[ "$(epoch_of "$work/reloaded.out")" -gt "$loaded_epoch" ]] \
  || fail "epoch did not advance across the reload"
"$gks" search "$work/dblp.gksidx" "$drill_query" --s=1 --top=5 \
  > "$work/search.out" || fail "gks search on the rebuilt index failed"
[[ "$(answer "$work/reloaded.out")" == "$(answer "$work/search.out")" ]] \
  || fail "reloaded server and gks search disagree on the rebuilt index"
[[ "$(answer "$work/reloaded.out")" != "$want" ]] \
  || fail "the rebuilt index answers like the old one; the drill is void"
quit_server

echo "check_server: OK (port $port, epochs $epoch_before -> $epoch_after," \
     "live rebuild drill passed)"
