#!/usr/bin/env bash
# Machine-readable bench telemetry snapshot: builds the fast experiment
# benches in Release and runs them with LODVIZ_BENCH_JSON set, so each one
# writes a BENCH_<id>.json file (metrics snapshot with p50/p95/p99
# histograms + Chrome trace-event array; see bench/bench_util.h Telemetry).
#
#   scripts/bench_snapshot.sh [output-dir]     (default: repo root)
#
# Open the "traceEvents" array of any snapshot in https://ui.perfetto.dev
# to see the span tree. Run from the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT_DIR="${1:-$PWD}"
mkdir -p "$OUT_DIR"
BUILD=build-bench
JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 2)"

# The fast subset: each finishes in well under a minute on a laptop. The
# longer benches (e7 disk exploration, ...) accept the same env var; run
# them by hand when their numbers are needed. e10's snapshot includes the
# memory-vs-disk backend phases (per-query mem_qN_*/disk_qN_* latency,
# rows/s, and buffer-pool hit rate), the Part D thread-scaling phases
# (disk_bgp_{serialized,striped}_{1,4}t_ms over the lock-striped buffer
# pool plus the disk_bgp_4t_striped_speedup ratio), and the Part F
# OPTIONAL phases (partF_optional_{filtered,unfiltered}_{ms,4t_ms}); e7
# records the same phase keys for its exploration queries.
BENCHES=(e1_sampling e5_hetree e10_sparql)

echo "== bench_snapshot: building ${BENCHES[*]} =="
cmake -B "$BUILD" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$BUILD" --target "${BENCHES[@]}" -j "$JOBS" >/dev/null

for b in "${BENCHES[@]}"; do
  echo "== bench_snapshot: $b =="
  LODVIZ_BENCH_JSON="$OUT_DIR" "$BUILD/bench/$b"
done

echo "bench_snapshot: wrote $(ls "$OUT_DIR"/BENCH_*.json | wc -l) snapshot(s) to $OUT_DIR"
