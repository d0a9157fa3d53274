#include "rdf/triple_store.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "common/check.h"

namespace lodviz::rdf {

TripleStore::TripleStore(TripleStore&& other) noexcept {
  *this = std::move(other);
}

TripleStore& TripleStore::operator=(TripleStore&& other) noexcept
    LODVIZ_NO_THREAD_SAFETY_ANALYSIS {
  if (this == &other) return *this;
  dict_ = std::move(other.dict_);
  MutexLock lock_other(&other.mu_);
  MutexLock lock_this(&mu_);
  pending_ = std::move(other.pending_);
  other.pending_.clear();
  snapshot_ = std::move(other.snapshot_);
  other.snapshot_ = Indexes();
  has_pending_.store(other.has_pending_.exchange(false));
  return *this;
}

Triple TripleStore::Add(const Term& s, const Term& p, const Term& o) {
  Triple t(dict_.Intern(s), dict_.Intern(p), dict_.Intern(o));
  AddEncoded(t);
  return t;
}

void TripleStore::AddEncoded(const Triple& t) {
  LODVIZ_DCHECK(t.s != kInvalidTermId && t.p != kInvalidTermId &&
                t.o != kInvalidTermId)
      << "triple references the reserved invalid term id";
  MutexLock lock(&mu_);
  pending_.push_back(t);
  has_pending_.store(true);
}

const TripleStore::Indexes& TripleStore::Snapshot() const {
  if (has_pending_.load()) {
    MutexLock lock(&mu_);
    FoldLocked();
  }
  return snapshot_;
}

void TripleStore::Compact() const { Snapshot(); }

namespace {

/// Merges two disjoint runs sorted by `order` into one.
template <typename Order>
std::vector<Triple> MergeSorted(const std::vector<Triple>& a,
                                const std::vector<Triple>& b, Order order) {
  std::vector<Triple> out;
  out.reserve(a.size() + b.size());
  std::merge(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(out),
             order);
  return out;
}

/// Adds the per-predicate counts of `fresh` (sorted by POS, so grouped by
/// predicate) to the ascending counts `old`.
std::vector<std::pair<TermId, uint64_t>> MergePredicateCounts(
    const std::vector<std::pair<TermId, uint64_t>>& old,
    const std::vector<Triple>& fresh) {
  std::vector<std::pair<TermId, uint64_t>> out;
  out.reserve(old.size());
  auto it = old.begin();
  size_t i = 0;
  while (i < fresh.size()) {
    const TermId p = fresh[i].p;
    size_t j = i;
    while (j < fresh.size() && fresh[j].p == p) ++j;
    while (it != old.end() && it->first < p) out.push_back(*it++);
    uint64_t n = j - i;
    if (it != old.end() && it->first == p) n += (it++)->second;
    out.emplace_back(p, n);
    i = j;
  }
  out.insert(out.end(), it, old.end());
  return out;
}

}  // namespace

void TripleStore::FoldLocked() const {
  if (pending_.empty()) return;
  // Swapping (not clearing) hands the buffer's capacity to `fresh`, which
  // is freed when the fold returns.
  std::vector<Triple> fresh;
  fresh.swap(pending_);
  std::sort(fresh.begin(), fresh.end(), OrderSpo());
  fresh.erase(std::unique(fresh.begin(), fresh.end()), fresh.end());

  const Indexes& old = snapshot_;
  if (!old.spo.empty()) {
    std::vector<Triple> added;
    std::set_difference(fresh.begin(), fresh.end(), old.spo.begin(),
                        old.spo.end(), std::back_inserter(added), OrderSpo());
    fresh = std::move(added);
  }
  if (!fresh.empty()) {
    Indexes next;
    next.spo = MergeSorted(old.spo, fresh, OrderSpo());
    std::vector<TermId> fresh_subjects;
    for (const Triple& t : fresh) {  // SPO order
      if (fresh_subjects.empty() || fresh_subjects.back() != t.s) {
        fresh_subjects.push_back(t.s);
      }
    }
    std::set_union(old.subjects.begin(), old.subjects.end(),
                   fresh_subjects.begin(), fresh_subjects.end(),
                   std::back_inserter(next.subjects));
    std::sort(fresh.begin(), fresh.end(), OrderPos());
    next.pred_counts = MergePredicateCounts(old.pred_counts, fresh);
    next.pos = MergeSorted(old.pos, fresh, OrderPos());
    std::sort(fresh.begin(), fresh.end(), OrderOsp());
    next.osp = MergeSorted(old.osp, fresh, OrderOsp());
    // No read is in flight (class contract), so the replaced snapshot
    // can go now.
    snapshot_ = std::move(next);
  }
  // Cleared only once the new snapshot is published: a reader that sees
  // no pending writes must also see the snapshot that holds them.
  has_pending_.store(false);
}

namespace {

/// Delivers [lo, hi) as maximal contiguous spans of pattern matches —
/// zero-copy runs straight out of the sorted index.
bool RunRange(const Triple* lo, const Triple* hi, const TriplePattern& pattern,
              const TripleSource::ScanRunFn& fn) {
  const Triple* it = lo;
  while (it != hi) {
    while (it != hi && !pattern.Matches(*it)) ++it;
    const Triple* start = it;
    while (it != hi && pattern.Matches(*it)) ++it;
    if (it != start && !fn(start, static_cast<size_t>(it - start))) {
      return false;
    }
  }
  return true;
}

/// Delivers the [lo, hi] key range of one sorted permutation index.
template <typename Order>
void ScanIndex(const std::vector<Triple>& index, const Triple& lo,
               const Triple& hi, const TriplePattern& pattern,
               const TripleSource::ScanRunFn& fn) {
  auto b = std::lower_bound(index.begin(), index.end(), lo, Order());
  auto e = std::upper_bound(b, index.end(), hi, Order());
  RunRange(index.data() + (b - index.begin()),
           index.data() + (e - index.begin()), pattern, fn);
}

}  // namespace

void TripleStore::ScanRuns(const TriplePattern& pattern,
                           const ScanRunFn& fn) const {
  // No lock is held while `fn` runs.
  const Indexes& snap = Snapshot();
  constexpr TermId kMax = ~TermId(0);
  if (pattern.s != kInvalidTermId) {
    // SPO index: range over (s) or (s,p) prefix.
    ScanIndex<OrderSpo>(
        snap.spo, Triple(pattern.s, pattern.p, 0),
        Triple(pattern.s, pattern.p != kInvalidTermId ? pattern.p : kMax,
               kMax),
        pattern, fn);
  } else if (pattern.p != kInvalidTermId) {
    // POS index: range over (p) or (p,o) prefix.
    ScanIndex<OrderPos>(
        snap.pos, Triple(0, pattern.p, pattern.o),
        Triple(kMax, pattern.p,
               pattern.o != kInvalidTermId ? pattern.o : kMax),
        pattern, fn);
  } else if (pattern.o != kInvalidTermId) {
    // OSP index: range over (o).
    ScanIndex<OrderOsp>(snap.osp, Triple(0, 0, pattern.o),
                        Triple(kMax, kMax, pattern.o), pattern, fn);
  } else {
    RunRange(snap.spo.data(), snap.spo.data() + snap.spo.size(), pattern,
             fn);
  }
}

uint64_t TripleStore::Count(const TriplePattern& pattern) const {
  uint64_t n = 0;
  ScanRuns(pattern, [&](const Triple*, size_t run) {
    n += run;
    return true;
  });
  return n;
}

uint64_t TripleStore::size() const { return Snapshot().spo.size(); }

uint64_t TripleStore::PredicateCount(TermId p) const {
  const Indexes& snap = Snapshot();
  auto it = std::lower_bound(
      snap.pred_counts.begin(), snap.pred_counts.end(), p,
      [](const std::pair<TermId, uint64_t>& e, TermId id) {
        return e.first < id;
      });
  return it != snap.pred_counts.end() && it->first == p ? it->second : 0;
}

std::vector<std::pair<TermId, uint64_t>> TripleStore::PredicateCounts()
    const {
  return Snapshot().pred_counts;
}

std::vector<TermId> TripleStore::DistinctSubjects() const {
  return Snapshot().subjects;
}

size_t TripleStore::MemoryUsage() const {
  const Indexes& snap = Snapshot();
  return dict_.MemoryUsage() +
         (snap.spo.capacity() + snap.pos.capacity() + snap.osp.capacity()) *
             sizeof(Triple);
}

}  // namespace lodviz::rdf
