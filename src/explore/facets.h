#ifndef LODVIZ_EXPLORE_FACETS_H_
#define LODVIZ_EXPLORE_FACETS_H_

#include <map>
#include <string>
#include <vector>

#include "rdf/triple_source.h"

namespace lodviz::explore {

/// One facet value with its count under the current selection.
struct FacetValue {
  rdf::TermId value = rdf::kInvalidTermId;
  std::string label;
  uint64_t count = 0;
};

/// One facet (a predicate whose values partition the matching entities).
struct Facet {
  rdf::TermId predicate = rdf::kInvalidTermId;
  std::string label;
  std::vector<FacetValue> values;  // count desc, label asc, id asc
};

/// Faceted browsing over a triple source (/facet, gFacet, Rhizomer
/// [62, 57, 30]): conjunctive refinement over predicate-value selections,
/// with counts recomputed against the current result set.
class FacetedBrowser {
 public:
  explicit FacetedBrowser(const rdf::TripleSource* source);

  /// Entities matching the current selection (all subjects when empty).
  const std::vector<rdf::TermId>& Matching() const { return matching_; }
  size_t num_matching() const { return matching_.size(); }

  /// Available facets with counts under the current selection: the
  /// predicates with at most 64 distinct values over the matching set,
  /// each listing its 20 most frequent values (count desc, then label,
  /// then id), sorted by predicate label. A count is the number of
  /// matching triples with that value. Counts come from value runs: each
  /// predicate's `{?, p, ?}` scan arrives in POS order, so one value's
  /// subjects are contiguous. With a selection, subjects are tested
  /// against a bitmap over the dictionary's ids; with none, a run's
  /// length is its count.
  std::vector<Facet> Facets() const;

  /// Adds a conjunctive constraint (predicate = value) and refines.
  Status Select(rdf::TermId predicate, rdf::TermId value);

  /// Current constraints as (predicate, value).
  const std::map<rdf::TermId, rdf::TermId>& selection() const {
    return selection_;
  }

 private:
  void Recompute();

  const rdf::TripleSource* source_;
  std::map<rdf::TermId, rdf::TermId> selection_;
  std::vector<rdf::TermId> matching_;  // sorted
};

}  // namespace lodviz::explore

#endif  // LODVIZ_EXPLORE_FACETS_H_
