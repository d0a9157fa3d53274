#ifndef LODVIZ_RDF_TRIPLE_STORE_H_
#define LODVIZ_RDF_TRIPLE_STORE_H_

#include <atomic>
#include <cstdint>
#include <memory>
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
/// Thread-safety: `mu_` guards the pending buffer and snapshot ownership,
/// and is taken only to fold or to free a replaced snapshot. A read pins
/// the published snapshot by bumping a per-thread-striped reader count,
/// so concurrent readers share no lock and no written cache line, and the
/// scan and the caller's callback run with no lock held on a snapshot
/// that cannot change: readers never wait on each other's callbacks, and
/// a callback may reenter the store. A replaced snapshot is freed once no
/// reader is active. Writers must be serialized against each other.
/// AddEncoded may overlap readers (they see the snapshot published before
/// their call, or a later one); Add also interns into the dictionary,
/// which is not synchronized, so Add must not overlap readers of dict().
class TripleStore : public TripleSource {
 public:
  TripleStore();

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
  /// current snapshot — zero-copy pointers into the snapshot, which stays
  /// alive for the whole scan.
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
  /// the vector belongs to a snapshot that a later fold may release.
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

  /// Pins the current snapshot for one read, folding pending triples
  /// first. Takes `mu_` only when there is something to fold or free.
  class SnapshotRef {
   public:
    explicit SnapshotRef(const TripleStore* store);
    ~SnapshotRef();
    SnapshotRef(const SnapshotRef&) = delete;
    SnapshotRef& operator=(const SnapshotRef&) = delete;

    const Indexes* operator->() const { return snap_; }

   private:
    const TripleStore* store_;
    std::atomic<uint64_t>* readers_;
    const Indexes* snap_;
  };

  /// A reader count on its own cache line; threads spread over the slots.
  struct alignas(64) ReaderSlot {
    std::atomic<uint64_t> readers{0};
  };
  static constexpr size_t kReaderSlots = 16;

  /// The snapshot of an empty store; shared and never freed, so it needs
  /// no retiring.
  static const Indexes* EmptyIndexes();
  void FoldLocked() const LODVIZ_REQUIRES(mu_);
  /// Frees replaced snapshots if no reader is active.
  void ReclaimLocked() const LODVIZ_REQUIRES(mu_);

  /// The dictionary is written only by Add, which the class contract (see
  /// the header comment) requires to be serialized against readers of
  /// dict() — so it deliberately sits outside mu_.
  // LINT-ALLOW(concurrency.guarded_by): written by externally-serialized Add
  Dictionary dict_;

  /// Guards the pending buffer and snapshot ownership (mutable: folding
  /// is logically const and runs inside reads).
  mutable Mutex mu_;
  mutable std::vector<Triple> pending_ LODVIZ_GUARDED_BY(mu_);
  /// Owns the published snapshot (null while it is EmptyIndexes()).
  mutable std::unique_ptr<const Indexes> published_ LODVIZ_GUARDED_BY(mu_);
  /// Replaced snapshots that a reader may still be scanning.
  mutable std::vector<std::unique_ptr<const Indexes>> retired_
      LODVIZ_GUARDED_BY(mu_);

  /// The published snapshot, read without the lock.
  mutable std::atomic<const Indexes*> current_;
  mutable std::atomic<bool> has_pending_{false};
  mutable std::atomic<bool> has_retired_{false};
  // LINT-ALLOW(concurrency.guarded_by): each slot is one atomic counter
  mutable ReaderSlot reader_slots_[kReaderSlots];
};

}  // namespace lodviz::rdf

#endif  // LODVIZ_RDF_TRIPLE_STORE_H_
