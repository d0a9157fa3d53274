#ifndef LODVIZ_OBS_METRICS_H_
#define LODVIZ_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace lodviz::obs {

/// Monotonically increasing event count. Increments are single relaxed
/// atomic adds, safe from any thread with no locking — cheap enough for
/// per-page and per-row hot paths.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Increment(uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  /// Increments and returns the post-increment value — lets callers batch
  /// secondary bookkeeping on every Nth event with a single atomic op.
  uint64_t IncrementAndGet(uint64_t n = 1) {
    return v_.fetch_add(n, std::memory_order_relaxed) + n;
  }
  uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void Reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> v_{0};
};

/// Point-in-time signed level (queue depth, configured capacity, …).
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void Add(int64_t delta) { v_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

/// Summary of one histogram at snapshot time. Quantiles are upper bounds
/// of the containing bucket, so p50/p95/p99 over-estimate the true sample
/// quantile by at most one part in 2^kSubBucketBits (~6.25%).
struct HistogramSummary {
  uint64_t count = 0;
  double sum = 0.0;
  uint64_t min = 0;
  uint64_t max = 0;
  double mean = 0.0;
  uint64_t p50 = 0;
  uint64_t p95 = 0;
  uint64_t p99 = 0;
};

/// Lock-free log-scaled histogram of non-negative integer samples
/// (latencies in ns/us, row counts, …). HdrHistogram-style bucketing:
/// values below 2^kSubBucketBits are exact; above that, each power-of-two
/// range is split into 2^kSubBucketBits sub-buckets, bounding the relative
/// quantile error at 2^-kSubBucketBits. Record() is a handful of relaxed
/// atomic operations; no allocation, no locking.
class Histogram {
 public:
  static constexpr int kSubBucketBits = 4;
  static constexpr uint64_t kSubBucketCount = 1ULL << kSubBucketBits;
  static constexpr size_t kNumBuckets =
      ((64 - kSubBucketBits) << kSubBucketBits) + kSubBucketCount;

  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Record(uint64_t value);
  /// Convenience for callers holding a non-negative double (ms, us, …);
  /// negative values clamp to 0.
  void RecordDouble(double value) {
    Record(value > 0 ? static_cast<uint64_t>(value) : 0);
  }

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const {
    return static_cast<double>(sum_.load(std::memory_order_relaxed));
  }

  /// Sample value at quantile q in [0, 1] (upper bound of the containing
  /// bucket). Returns 0 on an empty histogram.
  uint64_t Quantile(double q) const;

  HistogramSummary Summarize() const;

  /// Maps a value to its bucket index (exposed for tests).
  static size_t BucketFor(uint64_t value);
  /// Largest value that lands in bucket `index` (the reported quantile
  /// representative).
  static uint64_t BucketUpperBound(size_t index);

 private:
  std::atomic<uint64_t> buckets_[kNumBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> min_{~0ULL};
  std::atomic<uint64_t> max_{0};
};

/// Full registry state at one point in time (see export.h for renderers).
struct MetricsSnapshot {
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::pair<std::string, int64_t>> gauges;
  std::vector<std::pair<std::string, HistogramSummary>> histograms;
};

/// Process-wide, thread-safe name -> metric table. Names follow the
/// `subsystem.name[_unit]` convention (e.g. `storage.buffer_pool.hits`,
/// `sparql.execute_us`). Get* registers on first use and returns a
/// reference that stays valid for the registry's lifetime — hot paths
/// should look a metric up once (function-local static or member pointer)
/// and increment through the cached reference, which is lock-free.
class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  /// The process-wide registry all built-in instrumentation uses.
  static MetricRegistry& Global();

  Counter& GetCounter(const std::string& name) LODVIZ_EXCLUDES(mu_);
  Gauge& GetGauge(const std::string& name) LODVIZ_EXCLUDES(mu_);
  Histogram& GetHistogram(const std::string& name) LODVIZ_EXCLUDES(mu_);

  /// Copies every metric's current value, sorted by name.
  MetricsSnapshot Snapshot() const LODVIZ_EXCLUDES(mu_);

 private:
  /// Leaf mutex in the process lock order: registry methods never acquire
  /// another lock while holding it, so any subsystem (exec, storage, ...)
  /// may call Get* while holding its own mutex. Declared ACQUIRED_AFTER
  /// at the call sites above it (exec::ThreadPool, exec's global pool
  /// state); obs sits below them in the layering DAG and cannot name them
  /// here.
  mutable Mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_
      LODVIZ_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ LODVIZ_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      LODVIZ_GUARDED_BY(mu_);
};

}  // namespace lodviz::obs

#endif  // LODVIZ_OBS_METRICS_H_
