#include "obs/metrics.h"

#include <bit>

namespace lodviz::obs {

void Histogram::Record(uint64_t value) {
  buckets_[BucketFor(value)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  uint64_t prev = min_.load(std::memory_order_relaxed);
  while (value < prev &&
         !min_.compare_exchange_weak(prev, value, std::memory_order_relaxed)) {
  }
  prev = max_.load(std::memory_order_relaxed);
  while (value > prev &&
         !max_.compare_exchange_weak(prev, value, std::memory_order_relaxed)) {
  }
}

size_t Histogram::BucketFor(uint64_t value) {
  if (value < kSubBucketCount) return static_cast<size_t>(value);
  int msb = 63 - std::countl_zero(value);
  int shift = msb - kSubBucketBits;
  uint64_t sub = (value >> shift) & (kSubBucketCount - 1);
  return ((static_cast<size_t>(msb - kSubBucketBits) + 1) << kSubBucketBits) |
         static_cast<size_t>(sub);
}

uint64_t Histogram::BucketUpperBound(size_t index) {
  size_t group = index >> kSubBucketBits;
  uint64_t sub = index & (kSubBucketCount - 1);
  if (group == 0) return static_cast<uint64_t>(index);
  int msb = static_cast<int>(group) + kSubBucketBits - 1;
  uint64_t lower = (1ULL << msb) + (sub << (msb - kSubBucketBits));
  uint64_t width = 1ULL << (msb - kSubBucketBits);
  return lower + width - 1;
}

uint64_t Histogram::Quantile(double q) const {
  uint64_t total = count();
  if (total == 0) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(total));
  if (rank < 1) rank = 1;
  if (rank > total) rank = total;
  uint64_t seen = 0;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    seen += buckets_[i].load(std::memory_order_relaxed);
    if (seen >= rank) {
      uint64_t upper = BucketUpperBound(i);
      uint64_t hi = max_.load(std::memory_order_relaxed);
      return upper < hi ? upper : hi;
    }
  }
  return max_.load(std::memory_order_relaxed);
}

HistogramSummary Histogram::Summarize() const {
  HistogramSummary s;
  s.count = count();
  s.sum = sum();
  if (s.count > 0) {
    s.min = min_.load(std::memory_order_relaxed);
    s.max = max_.load(std::memory_order_relaxed);
    s.mean = s.sum / static_cast<double>(s.count);
    s.p50 = Quantile(0.50);
    s.p95 = Quantile(0.95);
    s.p99 = Quantile(0.99);
  }
  return s;
}

MetricRegistry& MetricRegistry::Global() {
  static MetricRegistry registry;
  return registry;
}

Counter& MetricRegistry::GetCounter(const std::string& name) {
  MutexLock lock(&mu_);
  std::unique_ptr<Counter>& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricRegistry::GetGauge(const std::string& name) {
  MutexLock lock(&mu_);
  std::unique_ptr<Gauge>& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricRegistry::GetHistogram(const std::string& name) {
  MutexLock lock(&mu_);
  std::unique_ptr<Histogram>& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

MetricsSnapshot MetricRegistry::Snapshot() const {
  MutexLock lock(&mu_);
  MetricsSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) {
    snap.counters.emplace_back(name, c->value());
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) {
    snap.gauges.emplace_back(name, g->value());
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    snap.histograms.emplace_back(name, h->Summarize());
  }
  return snap;
}

}  // namespace lodviz::obs
