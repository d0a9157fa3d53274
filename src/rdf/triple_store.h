#ifndef LODVIZ_RDF_TRIPLE_STORE_H_
#define LODVIZ_RDF_TRIPLE_STORE_H_

#include <atomic>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "rdf/dictionary.h"
#include "rdf/triple.h"
#include "rdf/triple_source.h"

namespace lodviz::rdf {

/// In-memory triple store that answers every read from an immutable,
/// sorted snapshot: three permutation indexes (SPO, POS, OSP) plus exact
/// statistics, all deduplicated. Implements the TripleSource query
/// contract (see triple_source.h for the canonical scan early-exit and
/// ordering semantics).
///
/// The survey's "dynamic setting" precludes heavyweight preprocessing:
/// inserts are O(1) appends into a pending buffer. The first read after a
/// write folds that buffer into a new snapshot — the buffer is sorted and
/// deduplicated once, then merged into each permutation of the previous
/// snapshot — and publishes it. Reads never look at the buffer, so every
/// scan is a binary-searched range of a sorted index, and a triple
/// inserted twice is delivered once.
///
/// Thread-safety: any number of threads may read at once, and a scan's
/// callback may reenter the store. Writers (Add, AddEncoded) must be
/// serialized against each other and must never overlap a read of the
/// same store: load first, then serve. A snapshot is therefore replaced
/// only while no read is in flight, and a fold frees the old one at once.
/// Readers that race to fold the same writes serialize on `mu_`; a read
/// that finds nothing pending takes no lock, so the scan and its callback
/// run with no lock held.
class TripleStore : public TripleSource {
 public:
  TripleStore() = default;

  TripleStore(const TripleStore&) = delete;
  TripleStore& operator=(const TripleStore&) = delete;

  /// Moves lock the source's mutex; neither store may have readers, and
  /// the destination must not be visible to other threads yet.
  TripleStore(TripleStore&& other) noexcept;
  TripleStore& operator=(TripleStore&& other) noexcept;

  Dictionary& dict() { return dict_; }
  const Dictionary& dict() const override { return dict_; }

  /// Interns the terms and inserts the triple. Duplicates are removed
  /// when the triple is folded into the next snapshot.
  Triple Add(const Term& s, const Term& p, const Term& o);

  /// Inserts an already-encoded triple.
  void AddEncoded(const Triple& t) LODVIZ_EXCLUDES(mu_);

  /// Distinct triples.
  [[nodiscard]] uint64_t size() const override LODVIZ_EXCLUDES(mu_);

  /// TripleSource scan primitive (triple_source.h): delivers maximal
  /// contiguous matching spans of the best permutation index of the
  /// current snapshot — zero-copy pointers into the snapshot.
  void ScanRuns(const TriplePattern& pattern, const ScanRunFn& fn) const
      override LODVIZ_EXCLUDES(mu_);

  /// Number of matches.
  [[nodiscard]] uint64_t Count(const TriplePattern& pattern) const override
      LODVIZ_EXCLUDES(mu_);

  /// Distinct triples with predicate `p` (0 if absent): a binary search
  /// of the snapshot's sorted predicate counts.
  [[nodiscard]] uint64_t PredicateCount(TermId p) const override
      LODVIZ_EXCLUDES(mu_);

  /// The snapshot's predicate counts, ascending by id. Returned by value:
  /// the vector belongs to a snapshot that a later fold replaces.
  [[nodiscard]] std::vector<std::pair<TermId, uint64_t>> PredicateCounts()
      const override LODVIZ_EXCLUDES(mu_);

  /// The snapshot's distinct subjects, ascending: a copy of a list each
  /// fold merges, so no scan happens.
  [[nodiscard]] std::vector<TermId> DistinctSubjects() const override
      LODVIZ_EXCLUDES(mu_);

  /// Publishes the pending triples now instead of on the next read; a
  /// no-op when nothing is pending.
  void Compact() const LODVIZ_EXCLUDES(mu_);

  /// Approximate heap bytes including the dictionary.
  [[nodiscard]] size_t MemoryUsage() const LODVIZ_EXCLUDES(mu_);

 private:
  /// One published, immutable state of the store.
  struct Indexes {
    std::vector<Triple> spo;
    std::vector<Triple> pos;
    std::vector<Triple> osp;
    /// Distinct-triple count per predicate, ascending by id.
    std::vector<std::pair<TermId, uint64_t>> pred_counts;
    /// Distinct subjects, ascending.
    std::vector<TermId> subjects;
  };

  /// The snapshot every read uses: folds the pending triples first, under
  /// `mu_`, when there are any.
  const Indexes& Snapshot() const LODVIZ_EXCLUDES(mu_);
  void FoldLocked() const LODVIZ_REQUIRES(mu_);

  /// The dictionary is written only by Add, which the class contract (see
  /// the header comment) requires to be serialized against readers of
  /// dict() — so it deliberately sits outside mu_.
  // LINT-ALLOW(concurrency.guarded_by): written by externally-serialized Add
  Dictionary dict_;

  /// Guards the pending buffer and serializes folds (mutable: folding is
  /// logically const and runs inside reads).
  mutable Mutex mu_;
  mutable std::vector<Triple> pending_ LODVIZ_GUARDED_BY(mu_);
  /// Set by a write, cleared by the fold that publishes it. A read that
  /// sees it clear also sees that fold's snapshot.
  mutable std::atomic<bool> has_pending_{false};
  /// The published snapshot. Read without the lock: a fold replaces it
  /// only while no read is in flight.
  // LINT-ALLOW(concurrency.guarded_by): replaced only while no read runs
  mutable Indexes snapshot_;
};

}  // namespace lodviz::rdf

#endif  // LODVIZ_RDF_TRIPLE_STORE_H_
