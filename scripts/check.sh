#!/usr/bin/env bash
# Full correctness gate, fail-fast and ordered cheapest-first:
#
#   1. static analysis  — lodviz_lint self-test + repo-wide run (seconds;
#      catches concurrency.guarded_by / lock_order / layering violations
#      before any expensive build starts)
#   2. thread-safety    — clang -Werror=thread-safety build of the library
#      (skipped with a notice when clang++ is not installed; the annotation
#      macros are no-ops elsewhere, so only clang can check them)
#   3. reachability     — scripts/reachability.sh: every library function
#      is kept by a shipped program (bench, tool, example, lodbench) or
#      named in scripts/reachability_allowlist.txt with its reason, and no
#      allowlist entry is stale (an -O0 build of the programs, minutes)
#   4. ASan+UBSan       — full tier-1 suite under address+undefined
#   5. TSan             — obs/exec/sparql/serve/rdf-store/storage concurrency
#      tests and the exploration modules' 1-vs-4-thread parity legs
#   6. serving parity   — serve_check drives a live HTTP server with
#      concurrent clients and asserts every answer (cold plan cache, warm
#      plan cache, and under contention) is bit-identical to a direct
#      QueryEngine execution of the same query
#
#   scripts/check.sh            # all six gates
#   scripts/check.sh --lint     # gate 1 only (fast pre-commit check)
#
# Run from the repository root. See README "Correctness tooling".
set -euo pipefail
cd "$(dirname "$0")/.."

LINT_BUILD=build-lint
TSAFETY_BUILD=build-tsafety
ASAN_BUILD=build-asan
TSAN_BUILD=build-tsan
JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 2)"

echo "== [1/6] static analysis (lodviz_lint) =="
cmake -B "$LINT_BUILD" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$LINT_BUILD" --target lodviz_lint -j "$JOBS" >/dev/null
"$LINT_BUILD"/tools/lint/lodviz_lint --self-test
"$LINT_BUILD"/tools/lint/lodviz_lint --root . src bench tests tools
"$LINT_BUILD"/tools/lint/lodviz_lint --expect --root tests/lint_fixtures/bad
"$LINT_BUILD"/tools/lint/lodviz_lint --expect --root tests/lint_fixtures/clean
bash scripts/check_no_build_artifacts.sh .

if [ "${1:-}" = "--lint" ]; then
  echo "check.sh: lint OK (skipping thread-safety + sanitizer builds)"
  exit 0
fi

echo "== [2/6] clang -Werror=thread-safety =="
if command -v clang++ >/dev/null 2>&1; then
  # Library targets only: the annotations live in src/, and this keeps the
  # leg fast enough to run before the sanitizer builds.
  cmake -B "$TSAFETY_BUILD" -S . -DCMAKE_BUILD_TYPE=Release \
    -DCMAKE_CXX_COMPILER=clang++ -DLODVIZ_THREAD_SAFETY=ON >/dev/null
  cmake --build "$TSAFETY_BUILD" --target lodviz_common lodviz_obs \
    lodviz_exec lodviz_rdf lodviz_storage lodviz_sparql -j "$JOBS"
else
  echo "clang++ not found: skipping (GCC compiles the annotations away;" \
       "the lint gate above still enforces GUARDED_BY/lock-order statically)"
fi

echo "== [3/6] reachability (no library function without a shipped caller) =="
bash scripts/reachability.sh

echo "== [4/6] ASan+UBSan tier-1 suite =="
cmake -B "$ASAN_BUILD" -S . -C cmake/sanitize.cmake >/dev/null
cmake --build "$ASAN_BUILD" -j "$JOBS"
ctest --test-dir "$ASAN_BUILD" --output-on-failure -j "$JOBS"

echo "== [5/6] TSan obs + exec + sparql + serve + rdf store + storage + explore parity tests =="
# ThreadSanitizer is exclusive with ASan, so the concurrency tests get their
# own build tree. The Exec suites cover the thread pool plus every
# parallelized hot path (hetree, progressive, clustering, bundling, layout,
# sparql); the SparqlParity suites add the shared-QueryEngine regression
# (per-query stats instead of a mutable member), the memory/disk backend
# parity checks, and the SparqlParityStripedPool suite — concurrent
# Fetch/eviction on the lock-striped, read-only BufferPool
# (which replaced the serialized disk adapter), so this is the race gate
# for query execution and the storage layer under it.
# The Serve suites run the full HTTP server (acceptor + worker tasks on
# the shared pool, bounded fd queue, plan cache) under TSan — the race
# gate for the serving layer's front door.
# The SparqlParity golden grid runs every memory/disk × join × thread leg
# with profiling off and on, and the shared-engine tests mix profiled and
# plain engines, so gate 4 (ASan) and this gate cover the profiler's
# observe-don't-perturb contract.
# RdfStoreConcurrency races readers to the memory store's first fold and
# keeps scans running (with their callbacks parked) while a writer
# publishes a new snapshot — the race gate for the snapshot swap.
# StorageConcurrency runs four threads of bounded B+-tree range scans over
# a 4-frame pool, so leaf decodes race eviction and re-reads of the same
# frames — the race gate for the bounded leaf decode.
# ExploreParity runs every exploration module (facets, HETree, keyword
# search, profile, cube, graph...) over memory and a 4-frame disk store at
# one executor thread and at four — the race gate for the explore paths.
cmake -B "$TSAN_BUILD" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DLODVIZ_SANITIZE=thread >/dev/null
cmake --build "$TSAN_BUILD" --target obs_test exec_test sparql_parity_test \
  serve_test rdf_store_test storage_test explore_parity_test -j "$JOBS"
ctest --test-dir "$TSAN_BUILD" \
  -R '^(Obs|Exec|SparqlParity|Serve|RdfStoreConcurrency|StorageConcurrency|ExploreParity)' \
  --output-on-failure -j "$JOBS"

echo "== [6/6] serving layer end-to-end parity (serve_check) =="
# serve_check starts a real server on an ephemeral port and asserts that
# HTTP answers — cold cache, warm cache, and under 8 concurrent clients —
# are bit-identical to direct in-process execution, and that the plan
# cache actually served hits. Runs from the ASan build so the whole
# serving stack (sockets, HTTP parsing, cache, admission gate) gets
# address/UB coverage while being exercised end to end.
cmake --build "$ASAN_BUILD" --target serve_check -j "$JOBS"
"$ASAN_BUILD"/tools/serve_check

echo "check.sh: all gates passed"
