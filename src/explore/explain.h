#ifndef LODVIZ_EXPLORE_EXPLAIN_H_
#define LODVIZ_EXPLORE_EXPLAIN_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "rdf/triple_source.h"

namespace lodviz::explore {

/// One candidate explanation: removing the entities carrying this
/// (predicate, value) facet moves the outlier group's aggregate by
/// `influence` toward normal.
struct Explanation {
  rdf::TermId predicate = rdf::kInvalidTermId;
  rdf::TermId value = rdf::kInvalidTermId;
  std::string predicate_label;
  std::string value_label;
  /// Change of the outlier group's mean if the matching entities were
  /// removed (signed; large magnitude = strong explanation).
  double influence = 0.0;
  /// Outlier entities carrying the facet.
  uint64_t support = 0;
  /// Mean of the target property over facet-matching outliers.
  double facet_mean = 0.0;
};

/// Scorpion-style outlier explanation [141] ("systems provide
/// explanations regarding data trends and anomalies", Section 2): given a
/// group of outlier entities and the numeric property whose aggregate
/// looks anomalous, rank the facets whose removal best normalizes the
/// group — i.e. the attribute values that *cause* the anomaly.
///
/// `outliers` are subject term ids; `target_property` must have numeric
/// objects. Facets with support < 2 are ignored as noise.
Result<std::vector<Explanation>> ExplainDeviation(
    const rdf::TripleSource& source, rdf::TermId target_property,
    const std::vector<rdf::TermId>& outliers, size_t top_k = 5);

/// Convenience: the `k` subjects with the highest values of
/// `target_property` (a simple way to pick an outlier group).
std::vector<rdf::TermId> TopValueSubjects(const rdf::TripleSource& source,
                                          rdf::TermId target_property,
                                          size_t k);

}  // namespace lodviz::explore

#endif  // LODVIZ_EXPLORE_EXPLAIN_H_
