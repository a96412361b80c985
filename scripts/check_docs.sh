#!/usr/bin/env bash
# Docs lint (registered with ctest as `check_docs`): keeps
# docs/OBSERVABILITY.md and docs/SERVER.md in sync with the source tree
# so the documented operational contracts cannot silently rot.
#
#   1. Every span name listed between the span-names markers must be
#      created somewhere in src/ or tools/ (ScopedSpan / GKS_TRACE_SPAN).
#   2. Every span literal created in src/ or tools/ must be documented.
#   3. Every statically-named metric listed between the metric-names
#      markers must appear verbatim in src/ or tools/.
#   4. Every `--flag` listed between the serve-flags markers of
#      docs/SERVER.md must be read by the serve command (and every flag
#      the command reads must be documented).
#   5. The wire error codes documented in docs/SERVER.md must match the
#      wire_error constants of src/server/protocol.h, both directions.
#   6. Relative markdown links in docs/SERVER.md must resolve.
#   7. The `--rt*` flags documented between the rt-flags markers of
#      docs/INDEXING.md must match the rt- flags the serve command
#      reads, both directions.
#   8. The metric names between the rt-metrics markers of
#      docs/INDEXING.md must match the `gks.rt.*` literals in src/ and
#      tools/, both directions.
#   9. Relative markdown links in docs/INDEXING.md must resolve.
#  10. The coordinator flags documented between the coord-flags markers
#      of docs/DISTRIBUTED.md must match the `--coord-*` flags the serve
#      command reads, both directions.
#  11. The metric names between the coord-metrics markers of
#      docs/DISTRIBUTED.md must match the `gks.coord.*` literals in src/
#      and tools/, both directions.
#  12. Relative markdown links in docs/DISTRIBUTED.md must resolve.
#
# Usage: check_docs.sh [repo-root]   (defaults to the script's parent)

set -euo pipefail

root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
doc="$root/docs/OBSERVABILITY.md"
server_doc="$root/docs/SERVER.md"
indexing_doc="$root/docs/INDEXING.md"
distributed_doc="$root/docs/DISTRIBUTED.md"
fail=0

if [[ ! -f "$doc" ]]; then
  echo "check_docs: missing $doc" >&2
  exit 1
fi
if [[ ! -f "$server_doc" ]]; then
  echo "check_docs: missing $server_doc" >&2
  exit 1
fi
if [[ ! -f "$indexing_doc" ]]; then
  echo "check_docs: missing $indexing_doc" >&2
  exit 1
fi
if [[ ! -f "$distributed_doc" ]]; then
  echo "check_docs: missing $distributed_doc" >&2
  exit 1
fi

extract_block() {  # extract_block <marker> [file] — backticked names
  awk "/<!-- $1:begin -->/,/<!-- $1:end -->/" "${2:-$doc}" \
    | grep -oE '`[a-z0-9_.-]+`' | tr -d '`' | sort -u
}

doc_spans=$(extract_block "span-names")
if [[ -z "$doc_spans" ]]; then
  echo "check_docs: no span names found between span-names markers" >&2
  exit 1
fi

# 1. documented span -> source
for name in $doc_spans; do
  if ! grep -rqE "(GKS_TRACE_SPAN\(|ScopedSpan [A-Za-z_]+\()\"$name\"" \
      "$root/src" "$root/tools"; then
    echo "check_docs: span '$name' is documented in docs/OBSERVABILITY.md" \
         "but never created in src/ or tools/" >&2
    fail=1
  fi
done

# 2. source span -> documented
src_spans=$(grep -rhoE \
    "(GKS_TRACE_SPAN\(|ScopedSpan [A-Za-z_]+\()\"[a-z0-9_.]+\"" \
    "$root/src" "$root/tools" \
  | grep -oE '"[a-z0-9_.]+"' | tr -d '"' | sort -u)
for name in $src_spans; do
  if ! grep -qx "$name" <<<"$doc_spans"; then
    echo "check_docs: span '$name' is created in the source tree but not" \
         "documented in docs/OBSERVABILITY.md" >&2
    fail=1
  fi
done

# 3. documented metric -> source
doc_metrics=$(extract_block "metric-names")
for name in $doc_metrics; do
  if ! grep -rqF "\"$name\"" "$root/src" "$root/tools"; then
    echo "check_docs: metric '$name' is documented in" \
         "docs/OBSERVABILITY.md but not found in src/ or tools/" >&2
    fail=1
  fi
done

# 4. serve flags: documented <-> read by the serve command
doc_flags=$(extract_block "serve-flags" "$server_doc" | sed 's/^--//')
if [[ -z "$doc_flags" ]]; then
  echo "check_docs: no flags found between serve-flags markers in" \
       "docs/SERVER.md" >&2
  fail=1
fi
serve_src="$root/src/server/command.cc"
src_flags=$(sed -n '/^int RunServeCommand/,/^}/p' "$serve_src" \
  | grep -oE 'Get(String|Int|Double|Bool)\("[a-z-]+"' \
  | grep -oE '"[a-z-]+"' | tr -d '"' | sort -u)
for name in $doc_flags; do
  if ! grep -qx "$name" <<<"$src_flags"; then
    echo "check_docs: flag '--$name' is documented in docs/SERVER.md but" \
         "never read in src/server/command.cc" >&2
    fail=1
  fi
done
for name in $src_flags; do
  if ! grep -qx "$name" <<<"$doc_flags"; then
    echo "check_docs: serve flag '--$name' is read in" \
         "src/server/command.cc but not documented in docs/SERVER.md" >&2
    fail=1
  fi
done

# 5. wire error codes: documented <-> defined in protocol.h
doc_errors=$(extract_block "error-codes" "$server_doc")
src_errors=$(grep -oE 'std::string_view k[A-Za-z]+ = "[a-z_]+"' \
    "$root/src/server/protocol.h" \
  | grep -oE '"[a-z_]+"' | tr -d '"' | sort -u)
for name in $doc_errors; do
  if ! grep -qx "$name" <<<"$src_errors"; then
    echo "check_docs: error code '$name' is documented in docs/SERVER.md" \
         "but not defined in src/server/protocol.h" >&2
    fail=1
  fi
done
for name in $src_errors; do
  if ! grep -qx "$name" <<<"$doc_errors"; then
    echo "check_docs: error code '$name' is defined in" \
         "src/server/protocol.h but not documented in docs/SERVER.md" >&2
    fail=1
  fi
done

# 6. relative links in docs/SERVER.md must resolve
while IFS= read -r link; do
  target="${link%%#*}"
  [[ -z "$target" ]] && continue  # pure fragment
  if [[ ! -e "$root/docs/$target" ]]; then
    echo "check_docs: docs/SERVER.md links to '$link' but" \
         "docs/$target does not exist" >&2
    fail=1
  fi
done < <(grep -oE '\]\([^)]+\)' "$server_doc" | sed 's/^](//; s/)$//' \
         | grep -vE '^(https?:|#)' | sort -u)

# 7. rt flags: docs/INDEXING.md rt-flags block <-> serve command, both ways
rt_doc_flags=$(extract_block "rt-flags" "$indexing_doc" | sed 's/^--//')
if [[ -z "$rt_doc_flags" ]]; then
  echo "check_docs: no flags found between rt-flags markers in" \
       "docs/INDEXING.md" >&2
  fail=1
fi
rt_src_flags=$(grep -E '^rt(-|$)' <<<"$src_flags" || true)
for name in $rt_doc_flags; do
  if ! grep -qx "$name" <<<"$rt_src_flags"; then
    echo "check_docs: flag '--$name' is documented in docs/INDEXING.md" \
         "but never read by the serve command" >&2
    fail=1
  fi
done
for name in $rt_src_flags; do
  if ! grep -qx "$name" <<<"$rt_doc_flags"; then
    echo "check_docs: serve flag '--$name' is read in" \
         "src/server/command.cc but not documented in the rt-flags block" \
         "of docs/INDEXING.md" >&2
    fail=1
  fi
done

# 8. rt metrics: docs/INDEXING.md rt-metrics block <-> gks.rt.* literals
rt_doc_metrics=$(extract_block "rt-metrics" "$indexing_doc")
if [[ -z "$rt_doc_metrics" ]]; then
  echo "check_docs: no metrics found between rt-metrics markers in" \
       "docs/INDEXING.md" >&2
  fail=1
fi
rt_src_metrics=$(grep -rhoE '"gks\.rt\.[a-z0-9_.]+"' "$root/src" \
    "$root/tools" | tr -d '"' | sort -u)
for name in $rt_doc_metrics; do
  if ! grep -qx "$name" <<<"$rt_src_metrics"; then
    echo "check_docs: metric '$name' is documented in docs/INDEXING.md" \
         "but not found in src/ or tools/" >&2
    fail=1
  fi
done
for name in $rt_src_metrics; do
  if ! grep -qx "$name" <<<"$rt_doc_metrics"; then
    echo "check_docs: metric '$name' is registered in the source tree" \
         "but not documented in the rt-metrics block of" \
         "docs/INDEXING.md" >&2
    fail=1
  fi
done

# 9. relative links in docs/INDEXING.md must resolve
while IFS= read -r link; do
  target="${link%%#*}"
  [[ -z "$target" ]] && continue  # pure fragment
  if [[ ! -e "$root/docs/$target" ]]; then
    echo "check_docs: docs/INDEXING.md links to '$link' but" \
         "docs/$target does not exist" >&2
    fail=1
  fi
done < <(grep -oE '\]\([^)]+\)' "$indexing_doc" | sed 's/^](//; s/)$//' \
         | grep -vE '^(https?:|#)' | sort -u)

# 10. coordinator flags: docs/DISTRIBUTED.md coord-flags block <-> the
# serve command's --coord-* flags, both ways
coord_doc_flags=$(extract_block "coord-flags" "$distributed_doc" \
  | sed 's/^--//')
if [[ -z "$coord_doc_flags" ]]; then
  echo "check_docs: no flags found between coord-flags markers in" \
       "docs/DISTRIBUTED.md" >&2
  fail=1
fi
coord_src_flags=$(grep -E '^coord-' <<<"$src_flags" || true)
for name in $coord_doc_flags; do
  if ! grep -qx "$name" <<<"$coord_src_flags"; then
    echo "check_docs: flag '--$name' is documented in docs/DISTRIBUTED.md" \
         "but never read by the serve command" >&2
    fail=1
  fi
done
for name in $coord_src_flags; do
  if ! grep -qx "$name" <<<"$coord_doc_flags"; then
    echo "check_docs: serve flag '--$name' is read in" \
         "src/server/command.cc but not documented in the coord-flags" \
         "block of docs/DISTRIBUTED.md" >&2
    fail=1
  fi
done

# 11. coordinator metrics: docs/DISTRIBUTED.md coord-metrics block <->
# gks.coord.* literals, both ways
coord_doc_metrics=$(extract_block "coord-metrics" "$distributed_doc")
if [[ -z "$coord_doc_metrics" ]]; then
  echo "check_docs: no metrics found between coord-metrics markers in" \
       "docs/DISTRIBUTED.md" >&2
  fail=1
fi
coord_src_metrics=$(grep -rhoE '"gks\.coord\.[a-z0-9_.]+"' "$root/src" \
    "$root/tools" | tr -d '"' | sort -u)
for name in $coord_doc_metrics; do
  if ! grep -qx "$name" <<<"$coord_src_metrics"; then
    echo "check_docs: metric '$name' is documented in docs/DISTRIBUTED.md" \
         "but not found in src/ or tools/" >&2
    fail=1
  fi
done
for name in $coord_src_metrics; do
  if ! grep -qx "$name" <<<"$coord_doc_metrics"; then
    echo "check_docs: metric '$name' is registered in the source tree" \
         "but not documented in the coord-metrics block of" \
         "docs/DISTRIBUTED.md" >&2
    fail=1
  fi
done

# 12. relative links in docs/DISTRIBUTED.md must resolve
while IFS= read -r link; do
  target="${link%%#*}"
  [[ -z "$target" ]] && continue  # pure fragment
  if [[ ! -e "$root/docs/$target" ]]; then
    echo "check_docs: docs/DISTRIBUTED.md links to '$link' but" \
         "docs/$target does not exist" >&2
    fail=1
  fi
done < <(grep -oE '\]\([^)]+\)' "$distributed_doc" | sed 's/^](//; s/)$//' \
         | grep -vE '^(https?:|#)' | sort -u)

if [[ "$fail" -ne 0 ]]; then
  echo "check_docs: FAILED — update the docs or the source" >&2
  exit 1
fi
echo "check_docs: OK ($(wc -w <<<"$doc_spans") spans," \
     "$(wc -w <<<"$doc_metrics") metrics," \
     "$(wc -w <<<"$doc_flags") serve flags," \
     "$(wc -w <<<"$doc_errors") error codes," \
     "$(wc -w <<<"$rt_doc_flags") rt flags," \
     "$(wc -w <<<"$rt_doc_metrics") rt metrics," \
     "$(wc -w <<<"$coord_doc_flags") coord flags," \
     "$(wc -w <<<"$coord_doc_metrics") coord metrics verified)"
