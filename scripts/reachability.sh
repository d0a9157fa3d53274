#!/usr/bin/env bash
# reachability.sh — fails when a library function has no shipped caller.
#
# Method:
#   1. Build the lodviz libraries and every non-test program at -O0 with
#      -ffunction-sections -fdata-sections, so nothing is inlined away and
#      each function sits in its own section. The programs are the bench
#      binaries (bench/*.cc), the tools (tools/*.cc: sparql_server,
#      serve_check), the examples (examples/*.cpp) and lodbench (its own
#      CMake project, built from lodbench/ into the same build directory).
#   2. Link them with -Wl,--gc-sections, so a function that nothing
#      reachable from main() calls is dropped from the binary.
#   3. Compare the strong text symbols ("T" in nm) of each liblodviz_*.a
#      with the symbols those binaries still define. A library function no
#      binary keeps is reached only from tests, or from nothing.
#
# The gate: every unreached function must match an entry of
# scripts/reachability_allowlist.txt, and every entry must match at least
# one unreached function (an entry whose function was deleted or gained a
# caller is stale and fails the gate too). An entry is one line: a
# demangled name prefix, then the reason it is kept. At most 20 entries.
# Allowed reasons: a reference that tests compare shipped code against, a
# function that a named ROADMAP item gives a caller, or a member a type
# needs for safety. Everything else with no shipped caller is deleted.
#
# Blind spots: header-inline functions and templates are emitted as weak
# symbols into every object that uses them, not as strong symbols of the
# library, so this script cannot see them at all; nor can it see
# anonymous-namespace or static helpers (local symbols — -Werror's
# unused-function warning catches those). Moving a function body into a
# header, or into an anonymous namespace, to hide it from nm is out of
# bounds: delete the function or give it a real caller. A function kept
# only because a kept function references it counts as kept, and a virtual
# function counts as kept whenever its class's vtable is.
#
# Usage: scripts/reachability.sh [-v] [BUILD_DIR]
#   BUILD_DIR defaults to build-reach. -v prints each unreached function
#   (demangled) under its library, marked "allowed" when an allowlist
#   entry covers it. The last lines give one count per library (unreached,
#   and of those not allowlisted) and the totals. Exit status: 0 when the
#   gate passes, 1 when it fails (an unlisted unreached function, a stale
#   or reasonless entry, or more than 20 entries), 2 when the build fails.
set -euo pipefail

cd "$(dirname "$0")/.."

VERBOSE=0
if [[ "${1:-}" == "-v" ]]; then
  VERBOSE=1
  shift
fi
BUILD="${1:-build-reach}"
JOBS="${JOBS:-4}"
ALLOWLIST=scripts/reachability_allowlist.txt
MAX_ENTRIES=20

FLAGS=(-DCMAKE_BUILD_TYPE=Debug
       -DCMAKE_CXX_FLAGS_DEBUG=-O0
       "-DCMAKE_CXX_FLAGS=-ffunction-sections -fdata-sections"
       "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections")

programs=()
for f in bench/*.cc tools/*.cc examples/*.cpp; do
  name="$(basename "$f")"
  programs+=("${name%.*}")
done

build() {
  cmake -B "$BUILD" -S . "${FLAGS[@]}" >/dev/null &&
    cmake --build "$BUILD" -j "$JOBS" --target "${programs[@]}" >/dev/null &&
    cmake -B "$BUILD/lodbench" -S lodbench "${FLAGS[@]}" >/dev/null &&
    cmake --build "$BUILD/lodbench" -j "$JOBS" --target lodbench >/dev/null
}

echo "== building ${#programs[@]} programs + lodbench in $BUILD (-O0, gc-sections) ==" >&2
if ! build; then
  echo "reachability: build failed" >&2
  exit 2
fi

binaries=("$BUILD/lodbench/lodbench")
for name in "${programs[@]}"; do
  bin="$(find "$BUILD" -path "$BUILD/lodbench" -prune -o \
              -type f -name "$name" -perm -u+x -print -quit)"
  if [[ -z "$bin" ]]; then
    echo "reachability: no binary for $name" >&2
    exit 2
  fi
  binaries+=("$bin")
done

# Allowlist: "<prefix> <reason...>" per line; blank lines and # comments
# are skipped.
prefixes=()
failed=0
while read -r prefix reason; do
  [[ -z "$prefix" || "$prefix" == \#* ]] && continue
  if [[ -z "$reason" ]]; then
    echo "reachability: allowlist entry '$prefix' gives no reason" >&2
    failed=1
  fi
  prefixes+=("$prefix")
done <"$ALLOWLIST"
if ((${#prefixes[@]} > MAX_ENTRIES)); then
  echo "reachability: ${#prefixes[@]} allowlist entries (at most" \
       "$MAX_ENTRIES)" >&2
  failed=1
fi

allowed() {
  local name="$1" p
  for p in "${prefixes[@]}"; do
    [[ "$name" == "$p"* ]] && return 0
  done
  return 1
}

kept="$(mktemp)"
all_unreached="$(mktemp)"
trap 'rm -f "$kept" "$all_unreached"' EXIT
for bin in "${binaries[@]}"; do
  nm --defined-only "$bin" | awk 'NF == 3 { print $3 }'
done | sort -u >"$kept"

total=0
total_unlisted=0
summary=""
for lib in $(find "$BUILD/src" -name 'liblodviz_*.a' | sort); do
  name="$(basename "$lib" .a)"
  name="${name#lib}"
  unreached="$(nm --defined-only "$lib" 2>/dev/null |
               awk 'NF == 3 && $2 == "T" { print $3 }' | sort -u |
               comm -23 - "$kept" | c++filt)"
  count=0
  unlisted=0
  if [[ -n "$unreached" ]]; then
    while IFS= read -r fn; do
      count=$((count + 1))
      printf '%s\n' "$fn" >>"$all_unreached"
      if allowed "$fn"; then
        mark="allowed"
      else
        mark="UNLISTED"
        unlisted=$((unlisted + 1))
      fi
      if [[ "$VERBOSE" == 1 || "$mark" == UNLISTED ]]; then
        printf '%s\t%s\t%s\n' "$name" "$mark" "$fn"
      fi
    done <<<"$unreached"
  fi
  total=$((total + count))
  total_unlisted=$((total_unlisted + unlisted))
  summary+="$(printf '%-18s %4d unreached %4d unlisted' \
              "$name" "$count" "$unlisted")"$'\n'
done
printf '%s' "$summary"
printf '%-18s %4d unreached %4d unlisted\n' total "$total" "$total_unlisted"

for p in "${prefixes[@]}"; do
  if ! awk -v p="$p" 'index($0, p) == 1 { found = 1 } END { exit !found }' \
       "$all_unreached"; then
    echo "reachability: stale allowlist entry '$p' matches no unreached" \
         "function" >&2
    failed=1
  fi
done

if ((total_unlisted > 0)); then
  echo "reachability: $total_unlisted unreached function(s) not in" \
       "$ALLOWLIST: delete them or give them a shipped caller" >&2
  failed=1
fi
if ((failed)); then
  echo "reachability: FAILED" >&2
  exit 1
fi
echo "reachability: OK (${#prefixes[@]} allowlist entries)"
