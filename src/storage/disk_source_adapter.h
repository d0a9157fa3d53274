#ifndef LODVIZ_STORAGE_DISK_SOURCE_ADAPTER_H_
#define LODVIZ_STORAGE_DISK_SOURCE_ADAPTER_H_

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "rdf/dictionary.h"
#include "rdf/triple_source.h"
#include "storage/disk_triple_store.h"

namespace lodviz::storage {

/// Presents a DiskTripleStore as an rdf::TripleSource so the SPARQL engine
/// (and anything else written against the source contract) runs unchanged
/// over disk-resident indexes. The adapter does not own the store or the
/// dictionary; both must outlive it. Pair it with the dictionary that
/// encoded the store's triples — typically the in-memory store's dict when
/// the disk store mirrors it.
///
/// Thread-safety: DiskTripleStore reads go through the lock-striped
/// BufferPool, which supports fully concurrent Fetches, so the adapter
/// forwards ScanRuns/Count calls directly with no serialization of its
/// own.
/// Parallel BGP execution over this source runs genuinely in parallel at
/// the storage layer (scans touching different pool shards do not
/// contend).
///
/// Planner statistics (PredicateCount, PairCount) come straight from the
/// store's aggregated indexes — exact, and no construction-time scan. A
/// small memoization cache in front of the B-tree lookups keeps the
/// planner's repeated probes of the same (s,p)/predicate rows off the
/// buffer pool; the store is write-once, so build the adapter after its
/// BulkLoad and no memoized row goes stale. A lookup that fails is
/// reported like a scan error and answers 0, but is never memoized: the
/// next call asks the store again.
class DiskSourceAdapter : public rdf::TripleSource {
 public:
  DiskSourceAdapter(const DiskTripleStore* store, const rdf::Dictionary* dict);

  /// TripleSource scan primitive (see triple_source.h): forwards
  /// leaf-decoded runs from the store's B-trees. Storage-layer errors
  /// cannot surface through the void interface: they are logged, counted
  /// on `storage.adapter.scan_errors`, and the scan ends early (runs
  /// delivered before the error stay delivered).
  void ScanRuns(const rdf::TriplePattern& pattern,
                const ScanRunFn& fn) const override;

  /// The store's exact count. A storage error is logged and counted the
  /// same way, and the count is then 0.
  [[nodiscard]] uint64_t Count(const rdf::TriplePattern& pattern) const
      override;

  const rdf::Dictionary& dict() const override { return *dict_; }

  [[nodiscard]] uint64_t size() const override { return store_->size(); }

  [[nodiscard]] uint64_t PredicateCount(rdf::TermId p) const override;

  [[nodiscard]] uint64_t PairCount(rdf::TermId s,
                                   rdf::TermId p) const override;

  /// The store's p_agg rows (not memoized). A storage error is logged and
  /// counted the same way, and the list is then empty.
  [[nodiscard]] std::vector<std::pair<rdf::TermId, uint64_t>>
  PredicateCounts() const override;

  /// The store's s_agg keys. A storage error is logged and counted the
  /// same way, and the list is then empty.
  [[nodiscard]] std::vector<rdf::TermId> DistinctSubjects() const override;

 private:
  /// Cached aggregate lookup keyed (s<<32)|p; predicate rows use s = 0
  /// (0 is the invalid term id, so no (s,p) row collides with them). Only
  /// successful lookups enter the cache.
  uint64_t CachedStat(uint64_t key,
                      Result<uint64_t> (*load)(const DiskTripleStore&,
                                               uint64_t key)) const;

  const DiskTripleStore* store_;
  const rdf::Dictionary* dict_;

  /// Planner-statistics memoization. Bounded: wiped when it reaches
  /// kStatCacheCap entries (statistics rows are tiny; real workloads probe
  /// far fewer distinct keys than the cap).
  static constexpr size_t kStatCacheCap = 1 << 16;
  mutable Mutex stats_mu_;
  mutable std::unordered_map<uint64_t, uint64_t> stat_cache_
      LODVIZ_GUARDED_BY(stats_mu_);
};

}  // namespace lodviz::storage

#endif  // LODVIZ_STORAGE_DISK_SOURCE_ADAPTER_H_
