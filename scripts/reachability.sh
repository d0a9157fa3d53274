#!/usr/bin/env bash
# reachability.sh — lists the library functions that no shipped program keeps.
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
# Blind spots: header-inline functions and templates are emitted as weak
# symbols into every object that uses them, not as strong symbols of the
# library, so this script cannot see them at all. A function kept only
# because a kept function references it counts as kept, and a virtual
# function counts as kept whenever its class's vtable is.
#
# Usage: scripts/reachability.sh [-v] [BUILD_DIR]
#   BUILD_DIR defaults to build-reach. -v prints each unreached function
#   (demangled) under its library. The last lines give one count per
#   library and the total. This is a report, not a gate: it exits 0
#   whatever it finds, and non-zero only when the build fails.
set -euo pipefail

cd "$(dirname "$0")/.."

VERBOSE=0
if [[ "${1:-}" == "-v" ]]; then
  VERBOSE=1
  shift
fi
BUILD="${1:-build-reach}"
JOBS="${JOBS:-4}"

FLAGS=(-DCMAKE_BUILD_TYPE=Debug
       -DCMAKE_CXX_FLAGS_DEBUG=-O0
       "-DCMAKE_CXX_FLAGS=-ffunction-sections -fdata-sections"
       "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections")

programs=()
for f in bench/*.cc tools/*.cc examples/*.cpp; do
  name="$(basename "$f")"
  programs+=("${name%.*}")
done

echo "== building ${#programs[@]} programs + lodbench in $BUILD (-O0, gc-sections) ==" >&2
cmake -B "$BUILD" -S . "${FLAGS[@]}" >/dev/null
cmake --build "$BUILD" -j "$JOBS" --target "${programs[@]}" >/dev/null
cmake -B "$BUILD/lodbench" -S lodbench "${FLAGS[@]}" >/dev/null
cmake --build "$BUILD/lodbench" -j "$JOBS" --target lodbench >/dev/null

binaries=("$BUILD/lodbench/lodbench")
for name in "${programs[@]}"; do
  bin="$(find "$BUILD" -path "$BUILD/lodbench" -prune -o \
              -type f -name "$name" -perm -u+x -print -quit)"
  if [[ -z "$bin" ]]; then
    echo "reachability: no binary for $name" >&2
    exit 1
  fi
  binaries+=("$bin")
done

kept="$(mktemp)"
trap 'rm -f "$kept"' EXIT
for bin in "${binaries[@]}"; do
  nm --defined-only "$bin" | awk 'NF == 3 { print $3 }'
done | sort -u >"$kept"

total=0
summary=""
for lib in $(find "$BUILD/src" -name 'liblodviz_*.a' | sort); do
  name="$(basename "$lib" .a)"
  name="${name#lib}"
  unreached="$(nm --defined-only "$lib" 2>/dev/null |
               awk 'NF == 3 && $2 == "T" { print $3 }' | sort -u |
               comm -23 - "$kept")"
  count=0
  if [[ -n "$unreached" ]]; then
    count="$(printf '%s\n' "$unreached" | wc -l)"
    if [[ "$VERBOSE" == 1 ]]; then
      printf '%s\n' "$unreached" | c++filt | sed "s/^/$name\t/"
    fi
  fi
  total=$((total + count))
  summary+="$(printf '%-18s %4d' "$name" "$count")"$'\n'
done
printf '%s' "$summary"
printf '%-18s %4d\n' total "$total"
