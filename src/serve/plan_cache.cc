#include "serve/plan_cache.h"

namespace lodviz::serve {

PlanCache::PlanCache(size_t capacity)
    : capacity_(capacity),
      hits_(obs::MetricRegistry::Global().GetCounter(
          "serve.plan_cache.hits")),
      misses_(obs::MetricRegistry::Global().GetCounter(
          "serve.plan_cache.misses")),
      evictions_(obs::MetricRegistry::Global().GetCounter(
          "serve.plan_cache.evictions")),
      collisions_(obs::MetricRegistry::Global().GetCounter(
          "serve.plan_cache.collisions")),
      size_gauge_(obs::MetricRegistry::Global().GetGauge(
          "serve.plan_cache.size")) {}

std::shared_ptr<const sparql::QueryPlan> PlanCache::Lookup(
    uint64_t fingerprint, const std::string& canonical_key) {
  std::shared_ptr<const sparql::QueryPlan> plan;
  bool collision = false;
  {
    MutexLock lock(&mu_);
    auto it = entries_.find(fingerprint);
    if (it != entries_.end()) {
      if (it->second.canonical_key == canonical_key) {
        lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
        plan = it->second.plan;
      } else {
        collision = true;
      }
    }
  }
  if (plan != nullptr) {
    hits_.Increment();
  } else {
    misses_.Increment();
    if (collision) collisions_.Increment();
  }
  return plan;
}

std::shared_ptr<const sparql::QueryPlan> PlanCache::Insert(
    uint64_t fingerprint, std::string canonical_key, sparql::QueryPlan plan) {
  auto shared = std::make_shared<const sparql::QueryPlan>(std::move(plan));
  if (capacity_ == 0) return shared;
  uint64_t evicted = 0;
  size_t size_after = 0;
  {
    MutexLock lock(&mu_);
    auto it = entries_.find(fingerprint);
    if (it != entries_.end()) {
      // Replace in place (re-plan of a cached query, or a fingerprint
      // collision where latest wins); LRU position refreshes.
      it->second.canonical_key = std::move(canonical_key);
      it->second.plan = shared;
      lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
      size_after = entries_.size();
    } else {
      if (entries_.size() >= capacity_) {
        const uint64_t victim = lru_.back();
        lru_.pop_back();
        entries_.erase(victim);
        evicted = 1;
      }
      lru_.push_front(fingerprint);
      entries_.emplace(fingerprint,
                       Entry{std::move(canonical_key), shared, lru_.begin()});
      size_after = entries_.size();
    }
  }
  if (evicted != 0) evictions_.Increment(evicted);
  size_gauge_.Set(static_cast<int64_t>(size_after));
  return shared;
}

}  // namespace lodviz::serve
