#ifndef LODVIZ_RDF_TRIPLE_SOURCE_H_
#define LODVIZ_RDF_TRIPLE_SOURCE_H_

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "rdf/dictionary.h"
#include "rdf/triple.h"

namespace lodviz::rdf {

/// Abstract read-only source of dictionary-encoded triples: the storage
/// contract the SPARQL engine (and every other query-shaped consumer) is
/// written against, so the same query runs unchanged over the in-memory
/// `rdf::TripleStore` or the disk-resident `storage::DiskTripleStore`
/// (via `storage::DiskSourceAdapter`) — the survey's Section 4 demand
/// that engines "retrieve data dynamically during runtime" from disk
/// structures instead of being welded to one resident representation.
///
/// ## The scan contract (canonical; implementations reference this)
///
/// `ScanRuns(pattern, fn)` is the one scan primitive a backend
/// implements. It streams every triple matching `pattern`
/// (kInvalidTermId fields are wildcards) to `fn` in contiguous runs:
///
///  - **Early exit:** `fn` returns `true` to continue and `false` to stop
///    the scan immediately; no further run is delivered after a `false`
///    return.
///  - **Order:** matches arrive in the order of the best index for the
///    pattern's bound positions. All lodviz sources index (s,p,o) and
///    (p,o,s) prefixes identically, so for any pattern the concatenation
///    of the runs is a pure function of the data — never of the backend
///    or of where one run ends. This is what makes query execution
///    bit-identical across memory and disk. In particular the all-wildcard
///    pattern `{}` delivers every triple in (s,p,o) order on every
///    backend; DistinctSubjects relies on it.
///  - **Lifetime:** run pointers are only valid during the callback.
///  - **Reentrancy:** `fn` may call back into the same source (for
///    example `Count` or a nested scan); no implementation holds a lock
///    while `fn` runs.
///  - **Thread-safety:** concurrent scans on one source must be safe and
///    must not wait on each other's callbacks. The memory store scans an
///    immutable snapshot, replaced only while no read runs; the disk
///    adapter scans B-trees over the lock-striped buffer pool, so disjoint
///    scans run in parallel.
///
/// `Scan(pattern, fn)` is the per-triple form, defined once here as the
/// loop over ScanRuns: the same triples in the same order, and nothing
/// delivered after `fn` returns false, even in the middle of a run.
class TripleSource {
 public:
  using ScanFn = std::function<bool(const Triple&)>;
  using ScanRunFn = std::function<bool(const Triple* run, size_t n)>;

  virtual ~TripleSource() = default;

  /// Streams matches of `pattern` to `fn` one triple at a time (see the
  /// contract above). Backends do not override it; it is virtual only so
  /// that a timing decorator can wrap it.
  virtual void Scan(const TriplePattern& pattern, const ScanFn& fn) const;

  /// Streams matches of `pattern` to `fn` in runs under the contract
  /// above: the scan primitive every backend implements.
  virtual void ScanRuns(const TriplePattern& pattern,
                        const ScanRunFn& fn) const = 0;

  /// Number of triples matching `pattern`.
  [[nodiscard]] virtual uint64_t Count(const TriplePattern& pattern) const = 0;

  /// Materializes every match of `pattern`, in scan order.
  [[nodiscard]] std::vector<Triple> Match(const TriplePattern& pattern) const;

  /// Distinct subjects that have at least one triple, ascending. The
  /// default is one `{}` scan (SPO order on every backend) with adjacent
  /// duplicates dropped; the memory store keeps the list in its snapshot
  /// and the disk adapter reads it from the store's subject tree.
  [[nodiscard]] virtual std::vector<TermId> DistinctSubjects() const;

  /// The term dictionary the triple ids refer to.
  virtual const Dictionary& dict() const = 0;

  /// Total triples in the source.
  [[nodiscard]] virtual uint64_t size() const = 0;

  /// Occurrences of predicate `p` (planner statistics).
  [[nodiscard]] virtual uint64_t PredicateCount(TermId p) const = 0;

  /// Every predicate with its number of triples, ascending by id. Backends
  /// answer it from their statistics; this default is an exact full scan,
  /// kept only for decorators that forward the other calls.
  [[nodiscard]] virtual std::vector<std::pair<TermId, uint64_t>>
  PredicateCounts() const;

  /// Exact number of triples with subject `s` and predicate `p` (planner
  /// statistics). The default delegates to Count(), which is exact on
  /// every backend; the disk backend overrides it with an aggregated-index
  /// lookup so no scan happens.
  [[nodiscard]] virtual uint64_t PairCount(TermId s, TermId p) const;

  /// A planner cardinality: how many triples `pattern` matches, and
  /// whether that number is exact (from aggregated statistics) or a
  /// heuristic estimate.
  struct CardinalityEstimate {
    double rows = 0.0;
    bool exact = false;
  };

  /// Cardinality of `pattern` for the SPARQL planner's greedy join
  /// orderer. Non-virtual on purpose: the formula depends only on the
  /// virtual statistics hooks (size, PredicateCount, PairCount), so two
  /// sources holding the same data estimate — and therefore plan —
  /// identically, which keeps execution bit-identical across backends.
  ///
  /// Exact shapes (from aggregated indexes): no bound positions (total),
  /// predicate-only (PredicateCount), and subject+predicate (PairCount).
  /// Everything else applies the legacy heuristic shrink factors and is
  /// flagged estimated.
  [[nodiscard]] CardinalityEstimate EstimateCardinality(
      const TriplePattern& pattern) const;
};

}  // namespace lodviz::rdf

#endif  // LODVIZ_RDF_TRIPLE_SOURCE_H_
