#ifndef LODVIZ_OBS_QUERY_LOG_H_
#define LODVIZ_OBS_QUERY_LOG_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "obs/profile.h"

namespace lodviz::obs {

/// One journaled query: identity (fingerprint + truncated text), cost
/// (latency, row counts), and the per-operator profile summary when the
/// execution was profiled.
struct QueryLogEntry {
  uint64_t fingerprint = 0;
  /// Query text as submitted, truncated to QueryLog::kMaxQueryBytes (AST
  /// level entry points leave it empty).
  std::string query;
  double latency_us = 0.0;
  uint64_t rows_out = 0;
  uint64_t intermediate_rows = 0;
  /// Per-operator actuals; `profile.profiled` is false when the execution
  /// ran with profiling disabled (the journal still captures the totals).
  QueryProfile profile;
  /// Admission number (1, 2, ...) across the journal's lifetime — stable
  /// even after the ring wraps, so consumers can order and dedup entries.
  uint64_t sequence = 0;
};

/// Bounded journal of slow queries: a mutex-guarded ring buffer keeping
/// the most recent `capacity` queries whose latency met the configured
/// threshold. Disabled by default (negative threshold); when disabled the
/// producer-side check is one relaxed atomic load and a branch, so the
/// engine can consult it unconditionally per query.
///
/// Thread-safety: Record/Entries/ToJson take mu_; the threshold is
/// atomic so ShouldRecord stays lock-free on the query hot path.
class QueryLog {
 public:
  static constexpr size_t kDefaultCapacity = 128;
  /// Journaled query text is truncated to this many bytes so one giant
  /// generated query cannot blow up the journal's bounded footprint.
  static constexpr size_t kMaxQueryBytes = 512;

  QueryLog() : QueryLog(kDefaultCapacity) {}
  explicit QueryLog(size_t capacity);
  QueryLog(const QueryLog&) = delete;
  QueryLog& operator=(const QueryLog&) = delete;

  /// The process-wide journal the SPARQL engine records into.
  static QueryLog& Global();

  /// Queries at least this slow are journaled; negative disables the
  /// journal entirely. Thresholds apply at Record time, so raising the
  /// threshold does not evict already-captured entries.
  void SetThresholdMicros(int64_t us) {
    threshold_us_.store(us, std::memory_order_relaxed);
  }
  [[nodiscard]] int64_t threshold_micros() const {
    return threshold_us_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] bool enabled() const { return threshold_micros() >= 0; }

  /// Lock-free producer-side gate: true iff the journal is enabled and
  /// `latency_us` meets the threshold. Callers use this to skip building
  /// an entry (fingerprint, text copy) for fast queries.
  [[nodiscard]] bool ShouldRecord(double latency_us) const {
    const int64_t t = threshold_micros();
    return t >= 0 && latency_us >= static_cast<double>(t);
  }

  /// Admits `entry` if it passes ShouldRecord(entry.latency_us),
  /// overwriting the oldest entry once full. Returns whether admitted.
  bool Record(QueryLogEntry entry) LODVIZ_EXCLUDES(mu_);

  /// Copies the retained entries, oldest first.
  [[nodiscard]] std::vector<QueryLogEntry> Entries() const
      LODVIZ_EXCLUDES(mu_);

  [[nodiscard]] size_t capacity() const { return capacity_; }

  /// Entries admitted across the journal's lifetime (>= Entries().size();
  /// the ring overwrites, it never refuses).
  [[nodiscard]] uint64_t total_admitted() const LODVIZ_EXCLUDES(mu_);

  /// JSON object: {"threshold_us":..,"capacity":..,"admitted":..,
  /// "entries":[...]} with entries oldest first; each entry carries its
  /// fingerprint (hex string), escaped query text, latency, row counts,
  /// and the profile tree (see ProfileJson).
  [[nodiscard]] std::string ToJson() const LODVIZ_EXCLUDES(mu_);

 private:
  const size_t capacity_;
  std::atomic<int64_t> threshold_us_{-1};

  /// Registered in the process lock order: Record's first admission looks
  /// its counters up in the metric registry while holding mu_, so mu_ sits
  /// above obs::MetricRegistry::mu_ in the acquisition graph (checked by
  /// lint's concurrency.lock_order rule).
  mutable Mutex mu_ LODVIZ_ACQUIRED_BEFORE(obs::MetricRegistry::mu_);
  std::vector<QueryLogEntry> ring_ LODVIZ_GUARDED_BY(mu_);
  /// Ring write position (index of the slot the next admission fills).
  size_t next_ LODVIZ_GUARDED_BY(mu_) = 0;
  uint64_t admitted_ LODVIZ_GUARDED_BY(mu_) = 0;
};

}  // namespace lodviz::obs

#endif  // LODVIZ_OBS_QUERY_LOG_H_
