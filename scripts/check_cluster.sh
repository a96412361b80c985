#!/usr/bin/env bash
# Distributed-mode smoke test (registered with ctest as
# `check_cluster_smoke`): exercises the real binaries end to end —
# shard a four-document repository with `gks shard`, check that a shard
# file names only its own documents (`gks search`) and that the removed
# `--doc-base` flag exits 2, start two shard workers (plain `gks serve
# <shard>`; the second with a replica mirror) plus a coordinator, and
# check against a single-index `gks serve` over the same repository that
#
#   1. every coordinator answer matches the single-index answer
#      (normalized for epoch/elapsed time),
#   2. a `kill -9` of a worker mid-load-run costs zero wrong answers —
#      the load report stays clean while the coordinator fails over to
#      the replica,
#   3. the failover is accounted: gks.coord.failovers_total advances and
#      queries keep matching the oracle afterwards.
#
# Usage: check_cluster.sh <gks-binary>

set -euo pipefail

gks="${1:?usage: check_cluster.sh <gks-binary>}"

work="$(mktemp -d)"
pids=()
cleanup() {
  for pid in "${pids[@]}"; do kill -9 "$pid" 2>/dev/null || true; done
  rm -rf "$work"
}
trap cleanup EXIT

fail() { echo "check_cluster: FAILED — $*" >&2; exit 1; }

# A small four-document repository (one document per file, as the
# splitter requires), plus the single-index oracle over the same files
# in the same order.
"$gks" generate dblp "$work/d0.xml" --scale=0.01 >/dev/null
"$gks" generate sigmod "$work/d1.xml" --scale=0.05 >/dev/null
"$gks" generate mondial "$work/d2.xml" --scale=0.05 >/dev/null
"$gks" generate nasa "$work/d3.xml" --scale=0.01 >/dev/null
files=("$work"/d0.xml "$work"/d1.xml "$work"/d2.xml "$work"/d3.xml)

"$gks" shard "$work/shards" "${files[@]}" --shards=2 > "$work/shard.out" \
  || fail "gks shard failed: $(cat "$work/shard.out")"
[[ -f "$work/shards/MANIFEST.json" ]] || fail "no MANIFEST.json written"
"$gks" index "$work/single.gksidx" "${files[@]}" >/dev/null

# doc_base and doc_count per shard, in shard order, straight from the
# manifest.
mapfile -t doc_bases < <(grep -oE '"doc_base":[0-9]+' \
    "$work/shards/MANIFEST.json" | cut -d: -f2)
mapfile -t doc_counts < <(grep -oE '"doc_count":[0-9]+' \
    "$work/shards/MANIFEST.json" | cut -d: -f2)
[[ "${#doc_bases[@]}" -eq 2 && "${#doc_counts[@]}" -eq 2 ]] \
  || fail "expected 2 shards in the manifest, got ${#doc_bases[@]}"

# A shard file records which documents it holds: `gks search` on shard 1
# names only the files of shard 1 (files[doc_base .. doc_base+count-1]).
shard1_files=("${files[@]:${doc_bases[1]}:${doc_counts[1]}}")
in_shard1() {  # in_shard1 <path> — no pipe, so pipefail cannot misfire
  local file
  for file in "${shard1_files[@]}"; do [[ "$file" == "$1" ]] && return 0; done
  return 1
}
named=0
for query in database system "country population" title; do
  while IFS= read -r doc; do
    named=$((named + 1))
    in_shard1 "$doc" \
      || fail "gks search on shard_01 named '$doc', not a shard-1 file"
  done < <("$gks" search "$work/shards/shard_01.gksidx" "$query" --top=50 \
             | sed -nE 's/^  <.*\[([^]]*)\]$/\1/p')
done
[[ "$named" -gt 0 ]] || fail "gks search on shard_01 named no documents"

# A worker reads its base from its shard file; --doc-base is gone and,
# like every unknown flag, exits 2 before the server binds.
rc=0
timeout 10 "$gks" serve "$work/shards/shard_01.gksidx" \
    --doc-base="${doc_bases[1]}" --port=0 > "$work/doc_base.out" 2>&1 \
  || rc=$?
[[ "$rc" -eq 2 ]] \
  || fail "gks serve --doc-base exited $rc, want 2: $(cat "$work/doc_base.out")"

# start_server <logfile> <args...> — writes "pid port" to <logfile>.pid.
# It runs in this shell, not in a subshell, so the EXIT trap sees every
# pid it adds and a start-up `fail` stops the script. Disowned servers
# die by the trap's kill (or the drill's) without a job notice.
start_server() {
  local log="$1"; shift
  "$gks" serve "$@" --port=0 --threads=2 > "$log" 2> "$log.err" &
  local pid=$!
  disown "$pid"
  pids+=("$pid")
  local port=""
  for _ in $(seq 1 100); do
    port=$(sed -nE 's/.*listening on [0-9.]+:([0-9]+).*/\1/p' "$log" \
           | head -1)
    [[ -n "$port" ]] && break
    kill -0 "$pid" 2>/dev/null \
      || fail "server exited early: $(cat "$log.err")"
    sleep 0.1
  done
  [[ -n "$port" ]] || fail "no 'listening on' line in $(cat "$log")"
  echo "$pid $port" > "$log.pid"
}

start_server "$work/single.log" "$work/single.gksidx"
read -r single_pid single_port < "$work/single.log.pid"
start_server "$work/w0.log" "$work/shards/shard_00.gksidx"
read -r w0_pid w0_port < "$work/w0.log.pid"
start_server "$work/w1.log" "$work/shards/shard_01.gksidx"
read -r w1_pid w1_port < "$work/w1.log.pid"
start_server "$work/w1r.log" "$work/shards/shard_01.gksidx"
read -r w1r_pid w1r_port < "$work/w1r.log.pid"
start_server "$work/coord.log" \
    --coord-shards="127.0.0.1:$w0_port,127.0.0.1:$w1_port|127.0.0.1:$w1r_port" \
    --coord-retries=2 --coord-backoff-ms=5
read -r coord_pid coord_port < "$work/coord.log.pid"
: "$single_pid" "$w0_pid" "$w1r_pid" "$coord_pid"  # tracked via pids[]

queries=("database" "system" "country population" "title")

# The answer-identity check: the same forced-plan query against the
# coordinator and the single-index oracle, with epoch and wall clock
# stripped; everything else — node count, |S_L|, candidates, plan, the
# describe line of every node, the DI list — must match byte for byte.
ask() {  # ask <port> <query>
  "$gks" client --host=127.0.0.1 --port="$1" --query="$2" --s=1 --top=10 \
      --plan=merge \
    | sed -E 's/^epoch [0-9]+, //; s/ in [0-9.]+ms$//'
}
diff_queries() {  # diff_queries <label>
  for query in "${queries[@]}"; do
    ask "$coord_port" "$query" > "$work/coord.ans"
    ask "$single_port" "$query" > "$work/single.ans"
    diff -u "$work/single.ans" "$work/coord.ans" > "$work/ans.diff" \
      || fail "$1: wrong answer for '$query': $(cat "$work/ans.diff")"
  done
}
diff_queries "healthy cluster"

"$gks" client --host=127.0.0.1 --port="$coord_port" --admin=health \
  | grep -q "status: serving" || fail "coordinator health not serving"

# Mid-stream kill: a load run is in flight against the coordinator when
# the shard-1 primary dies. The replica absorbs the failover and the
# report must stay clean — zero transport failures, zero error answers.
printf 'database\nsystem\ncountry population\n' > "$work/queries.txt"
"$gks" client --host=127.0.0.1 --port="$coord_port" \
    --queries="$work/queries.txt" --connections=4 --requests=40 \
    --json-out="$work/load.json" > "$work/load.out" 2>&1 &
load_pid=$!
sleep 0.4
kill -9 "$w1_pid" 2>/dev/null || true
wait "$load_pid" \
  || fail "load run not clean across the kill: $(cat "$work/load.out")"
grep -q '"clean":true' "$work/load.json" \
  || fail "json report not clean: $(cat "$work/load.json")"

# Post-kill correctness first — these queries also guarantee the dead
# primary has been hit (and failed over) before the accounting check,
# even if the load run drained before the kill landed.
diff_queries "after failover"

# Failover accounting.
metrics="$work/metrics.out"
"$gks" client --host=127.0.0.1 --port="$coord_port" --admin=metrics \
  > "$metrics"
failovers=$(sed -nE 's/^gks\.coord\.failovers_total +([0-9]+)$/\1/p' \
    "$metrics")
[[ -n "$failovers" && "$failovers" -gt 0 ]] \
  || fail "gks.coord.failovers_total did not advance after the kill"
fanouts=$(sed -nE 's/^gks\.coord\.fanout_total +([0-9]+)$/\1/p' "$metrics")
[[ -n "$fanouts" && "$fanouts" -gt 0 ]] \
  || fail "gks.coord.fanout_total missing from the metrics snapshot"

# Graceful drain of the survivors.
for port in "$coord_port" "$single_port" "$w0_port" "$w1r_port"; do
  "$gks" client --host=127.0.0.1 --port="$port" --admin=quit >/dev/null \
    || fail "quit failed on port $port"
done

echo "check_cluster: OK (coordinator $coord_port, failovers=$failovers," \
     "fanouts=$fanouts)"
