#ifndef LODVIZ_EXPLORE_INTEREST_H_
#define LODVIZ_EXPLORE_INTEREST_H_

#include <string>
#include <unordered_set>
#include <vector>

#include "rdf/triple_source.h"

namespace lodviz::explore {

/// A (predicate, value) signal that distinguishes the user's marked
/// entities from the dataset at large.
struct InterestSignal {
  rdf::TermId predicate = rdf::kInvalidTermId;
  rdf::TermId value = rdf::kInvalidTermId;
  std::string predicate_label;
  std::string value_label;
  /// Lift = P(value | interesting) / P(value | all); > 1 means
  /// over-represented among the marked entities.
  double lift = 0.0;
  /// Marked entities carrying the signal.
  uint64_t support = 0;
};

/// Explore-by-example-style steering (Section 2, ref [37]): the user
/// marks a few entities as interesting; the model learns which
/// (predicate, value) facets over-represent them and suggests unseen
/// entities ranked by those signals — "capturing user interests, guide
/// her to interesting data parts".
class InterestModel {
 public:
  explicit InterestModel(const rdf::TripleSource* source) : source_(source) {}

  /// Marks an entity as interesting (idempotent).
  void MarkInteresting(rdf::TermId subject);
  size_t num_marked() const { return marked_.size(); }

  /// The strongest discriminating facets, by lift (requires >= 1 mark).
  std::vector<InterestSignal> TopSignals(size_t k = 10) const;

  /// Unmarked entities ranked by how many high-lift signals they share
  /// (score = sum of matched signal lifts).
  std::vector<std::pair<rdf::TermId, double>> SuggestEntities(
      size_t k = 10) const;

 private:
  const rdf::TripleSource* source_;
  std::unordered_set<rdf::TermId> marked_;
};

}  // namespace lodviz::explore

#endif  // LODVIZ_EXPLORE_INTEREST_H_
