#ifndef LODVIZ_REC_RECOMMENDER_H_
#define LODVIZ_REC_RECOMMENDER_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "stats/profile.h"
#include "viz/types.h"

namespace lodviz::rec {

/// A scored visualization suggestion with its justification — what the
/// survey's Table 1 "Recomm." column denotes (LinkDaViz, Vis Wizard,
/// LDVizWiz, LDVM [129, 131, 11, 29]): map the dataset's data types to
/// suitable visualization types.
struct Recommendation {
  viz::VisSpec spec;
  double score = 0.0;
  std::string reason;
};

/// Rule-based recommender over dataset profiles with a user preference
/// layer (Table 1 "Preferences"): per-kind weights multiply the scores,
/// personalizing future rankings.
class Recommender {
 public:
  Recommender() = default;

  /// Ranks visualization candidates for the dataset, best first.
  std::vector<Recommendation> Recommend(const stats::DatasetProfile& profile,
                                        size_t top_k = 5) const;

  /// Explicit preference multiplier for a visualization kind (1 = neutral).
  void SetPreference(viz::VisKind kind, double multiplier);
  double preference(viz::VisKind kind) const;

 private:
  std::unordered_map<uint8_t, double> preferences_;
};

}  // namespace lodviz::rec

#endif  // LODVIZ_REC_RECOMMENDER_H_
