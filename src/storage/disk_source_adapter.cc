#include "storage/disk_source_adapter.h"

#include "common/logging.h"
#include "obs/metrics.h"

namespace lodviz::storage {

namespace {

/// Logs a storage error the void TripleSource interface cannot return
/// and counts it on `storage.adapter.scan_errors`.
void ReportScanError(const Status& s) {
  static obs::Counter& errors =
      obs::MetricRegistry::Global().GetCounter("storage.adapter.scan_errors");
  errors.Increment();
  LODVIZ_LOG_WARN() << "DiskSourceAdapter scan failed: " << s.ToString();
}

}  // namespace

DiskSourceAdapter::DiskSourceAdapter(const DiskTripleStore* store,
                                     const rdf::Dictionary* dict)
    : store_(store), dict_(dict) {}

void DiskSourceAdapter::ScanRuns(const rdf::TriplePattern& pattern,
                                 const ScanRunFn& fn) const {
  Status s = store_->ScanRuns(pattern, fn);
  if (!s.ok()) ReportScanError(s);
}

uint64_t DiskSourceAdapter::Count(const rdf::TriplePattern& pattern) const {
  Result<uint64_t> n = store_->Count(pattern);
  if (n.ok()) return *n;
  ReportScanError(n.status());
  return 0;
}

uint64_t DiskSourceAdapter::CachedStat(
    uint64_t key,
    Result<uint64_t> (*load)(const DiskTripleStore&, uint64_t)) const {
  {
    MutexLock lock(&stats_mu_);
    auto it = stat_cache_.find(key);
    if (it != stat_cache_.end()) return it->second;
  }
  // The aggregate lookup runs outside the cache lock so concurrent misses
  // do not serialize on the buffer pool behind it.
  const Result<uint64_t> value = load(*store_, key);
  if (!value.ok()) {
    ReportScanError(value.status());
    return 0;
  }
  MutexLock lock(&stats_mu_);
  if (stat_cache_.size() >= kStatCacheCap) stat_cache_.clear();
  stat_cache_.emplace(key, *value);
  return *value;
}

uint64_t DiskSourceAdapter::PredicateCount(rdf::TermId p) const {
  return CachedStat(p, [](const DiskTripleStore& store, uint64_t key) {
    return store.PredicateCount(static_cast<rdf::TermId>(key));
  });
}

uint64_t DiskSourceAdapter::PairCount(rdf::TermId s, rdf::TermId p) const {
  const uint64_t key = (static_cast<uint64_t>(s) << 32) | p;
  return CachedStat(key, [](const DiskTripleStore& store, uint64_t k) {
    return store.PairCount(static_cast<rdf::TermId>(k >> 32),
                           static_cast<rdf::TermId>(k & 0xFFFFFFFF));
  });
}

std::vector<std::pair<rdf::TermId, uint64_t>>
DiskSourceAdapter::PredicateCounts() const {
  Result<std::vector<std::pair<rdf::TermId, uint64_t>>> counts =
      store_->PredicateCounts();
  if (counts.ok()) return std::move(counts).ValueOrDie();
  ReportScanError(counts.status());
  return {};
}

std::vector<rdf::TermId> DiskSourceAdapter::DistinctSubjects() const {
  Result<std::vector<rdf::TermId>> subjects = store_->DistinctSubjects();
  if (subjects.ok()) return std::move(subjects).ValueOrDie();
  ReportScanError(subjects.status());
  return {};
}

}  // namespace lodviz::storage
