#ifndef LODVIZ_STORAGE_DISK_TRIPLE_STORE_H_
#define LODVIZ_STORAGE_DISK_TRIPLE_STORE_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "rdf/triple.h"
#include "storage/btree.h"
#include "storage/buffer_pool.h"
#include "storage/page_file.h"

namespace lodviz::storage {

/// Disk-resident triple indexes (SPO + POS B+-trees in one page file)
/// behind a bounded buffer pool: the out-of-core backend the survey calls
/// for in Section 4 ("systems should be integrated with disk structures,
/// retrieving data dynamically during runtime"). The dictionary stays in
/// memory (it is orders of magnitude smaller than the triples).
///
/// The store is write-once, like the offline-built indexes of the survey's
/// disk-based systems: BulkLoad writes every page of the file, and from
/// then on the store is only read. A changed dataset is a new store built
/// from a scan. Durability (a Sync and a superblock that lets the file be
/// reopened) is not provided: every user builds a fresh file.
///
/// Leaves use the delta-compressed format (leaf_codec.h). BulkLoad also
/// writes three aggregated indexes, exact by construction:
///   sp_agg: (s,p) -> number of distinct objects   (key {(s<<32)|p, 0})
///   s_agg:  s     -> number of triples             (key {s, 0})
///   p_agg:  p     -> number of triples             (key {p, 0})
/// sp_agg and p_agg make PairCount/PredicateCount exact O(log n) lookups,
/// which is what lets the planner cost BGPs from real cardinalities;
/// s_agg's keys are the subject list DistinctSubjects reads. All three
/// come from one linear pass over the sorted keys of their permutation.
///
/// Memory use is capped at `pool_pages` * 8 KiB regardless of dataset size.
class DiskTripleStore {
 public:
  /// Creates an empty store at `path` (truncating the file) with a
  /// `pool_pages`-page buffer pool. It answers as empty until BulkLoad.
  static Result<std::unique_ptr<DiskTripleStore>> Create(
      const std::string& path, size_t pool_pages);

  /// Creates an empty store over `file`, already open and empty (tests
  /// pass a PageFile that injects I/O faults).
  static std::unique_ptr<DiskTripleStore> Create(
      std::unique_ptr<PageFile> file, size_t pool_pages);

  /// Bulk-loads sorted-agnostic, already dictionary-encoded triples (sorts
  /// and dedups internally, packs leaves, builds the aggregated indexes)
  /// by writing the page file. Call once, on a store fresh from Create,
  /// before any reader. A failed page write is returned (kIoError).
  Status BulkLoad(std::vector<rdf::Triple> triples);

  /// Streams triples matching `pattern` (same wildcard semantics as the
  /// in-memory TripleStore) in runs, one decoded leaf's worth of matching
  /// triples per callback; return false to stop. Uses the SPO tree when
  /// the subject is bound, the POS tree when only the predicate/object
  /// are, else a full scan. Run pointers are only valid during the
  /// callback.
  Status ScanRuns(
      const rdf::TriplePattern& pattern,
      const std::function<bool(const rdf::Triple* run, size_t n)>& fn) const;

  /// Number of triples matching `pattern`: an aggregated-index lookup for
  /// the shapes sp_agg/p_agg cover, else the sum of the scan's run
  /// lengths. A storage error is returned, never a partial count.
  Result<uint64_t> Count(const rdf::TriplePattern& pattern) const;

  /// Exact number of triples with subject `s` and predicate `p`, from the
  /// sp_agg aggregated index (O(log n), no scan). An absent row is 0; a
  /// storage error is returned, never turned into a count.
  Result<uint64_t> PairCount(rdf::TermId s, rdf::TermId p) const;

  /// Exact number of triples with predicate `p`, from p_agg (same error
  /// contract as PairCount).
  Result<uint64_t> PredicateCount(rdf::TermId p) const;

  /// Every predicate with its number of triples, ascending by id: one
  /// range scan of p_agg.
  Result<std::vector<std::pair<rdf::TermId, uint64_t>>> PredicateCounts()
      const;

  /// Every subject with at least one triple, ascending: one range scan of
  /// s_agg.
  Result<std::vector<rdf::TermId>> DistinctSubjects() const;

  uint64_t size() const { return spo_->size(); }

  BufferPool& pool() { return *pool_; }
  const BufferPool& pool() const { return *pool_; }
  PageFile& file() { return *file_; }

  /// Buffer pool + bookkeeping bytes (excludes the OS page cache).
  size_t MemoryUsage() const { return pool_->MemoryUsage(); }

  /// Passkey for Create(): keeps the constructor effectively private while
  /// letting std::make_unique call it (no naked `new`).
  struct Private {
    explicit Private() = default;
  };
  explicit DiskTripleStore(Private) {}

 private:
  // The packing below shifts ids by 32, so index order silently corrupts
  // if TermId ever outgrows 32 bits (the dictionary CHECKs the same bound
  // at Intern time).
  static_assert(sizeof(rdf::TermId) <= 4,
                "Key128 triple packing assumes TermId fits in 32 bits");

  static Key128 SpoKey(const rdf::Triple& t) {
    return {(static_cast<uint64_t>(t.s) << 32) | t.p, t.o};
  }
  static Key128 PosKey(const rdf::Triple& t) {
    return {(static_cast<uint64_t>(t.p) << 32) | t.o, t.s};
  }
  static rdf::Triple FromSpoKey(const Key128& k) {
    return rdf::Triple(static_cast<rdf::TermId>(k.hi >> 32),
                       static_cast<rdf::TermId>(k.hi & 0xFFFFFFFF),
                       static_cast<rdf::TermId>(k.lo));
  }
  static rdf::Triple FromPosKey(const Key128& k) {
    return rdf::Triple(static_cast<rdf::TermId>(k.lo),
                       static_cast<rdf::TermId>(k.hi >> 32),
                       static_cast<rdf::TermId>(k.hi & 0xFFFFFFFF));
  }

  std::unique_ptr<PageFile> file_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<BTree> spo_;
  std::unique_ptr<BTree> pos_;
  std::unique_ptr<BTree> sp_agg_;
  std::unique_ptr<BTree> s_agg_;
  std::unique_ptr<BTree> p_agg_;
};

}  // namespace lodviz::storage

#endif  // LODVIZ_STORAGE_DISK_TRIPLE_STORE_H_
