#ifndef LODVIZ_SERVE_PLAN_CACHE_H_
#define LODVIZ_SERVE_PLAN_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "obs/metrics.h"
#include "sparql/planner.h"

namespace lodviz::serve {

/// Bounded LRU cache from normalized-query fingerprint to query plan —
/// the serving layer's answer to "parse is cheap, planning walks source
/// statistics per pattern". Keys are the 64-bit fingerprints PR 7 built
/// (sparql/fingerprint.h): whitespace, variable naming, and literal
/// spelling are already erased, so textually different spellings of one
/// query share a single cached plan.
///
/// A 64-bit hash can collide, and serving the wrong plan would mean
/// serving wrong results, so every entry stores the canonical byte key
/// (CanonicalQueryKey) alongside the plan and Lookup compares it on every
/// fingerprint hit: a collision degrades to a counted miss, never to a
/// wrong plan.
///
/// Plans are handed out as shared_ptr-to-const so an entry evicted while
/// another thread executes from it stays alive until that execution
/// drops its reference.
///
/// Thread-safe; all state is guarded by one internal mutex. Counters
/// (serve.plan_cache.hits / .misses / .evictions / .collisions, gauge
/// serve.plan_cache.size) are resolved against the global registry once
/// in the constructor and bumped lock-free, so the cache mutex never
/// nests with the registry's.
class PlanCache {
 public:
  /// `capacity` = max resident plans; 0 disables caching (every Lookup
  /// misses, Insert stores nothing).
  explicit PlanCache(size_t capacity);

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// The plan cached under `fingerprint`, or nullptr. `canonical_key`
  /// must be the CanonicalQueryKey of the query being looked up; a
  /// fingerprint hit whose stored key differs is a collision (counted,
  /// returned as a miss). A true hit moves the entry to LRU front.
  [[nodiscard]] std::shared_ptr<const sparql::QueryPlan> Lookup(
      uint64_t fingerprint, const std::string& canonical_key)
      LODVIZ_EXCLUDES(mu_);

  /// Caches `plan` under `fingerprint`, evicting the least recently used
  /// entry when full. An existing entry for the fingerprint is replaced
  /// (latest wins — also the collision case, where the old key differs).
  /// Returns the stored plan, so a caller that planned on a miss executes
  /// from it without a copy; with capacity 0 nothing is stored and the
  /// plan is still returned.
  std::shared_ptr<const sparql::QueryPlan> Insert(
      uint64_t fingerprint, std::string canonical_key,
      sparql::QueryPlan plan) LODVIZ_EXCLUDES(mu_);

  [[nodiscard]] size_t capacity() const { return capacity_; }

 private:
  struct Entry {
    std::string canonical_key;
    std::shared_ptr<const sparql::QueryPlan> plan;
    /// Position in lru_ (front = most recent).
    std::list<uint64_t>::iterator lru_pos;
  };

  const size_t capacity_;

  /// Resolved once in the constructor; increments are lock-free.
  obs::Counter& hits_;
  obs::Counter& misses_;
  obs::Counter& evictions_;
  obs::Counter& collisions_;
  obs::Gauge& size_gauge_;

  mutable Mutex mu_;
  std::list<uint64_t> lru_ LODVIZ_GUARDED_BY(mu_);
  std::unordered_map<uint64_t, Entry> entries_ LODVIZ_GUARDED_BY(mu_);
};

}  // namespace lodviz::serve

#endif  // LODVIZ_SERVE_PLAN_CACHE_H_
