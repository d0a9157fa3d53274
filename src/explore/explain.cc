#include "explore/explain.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <unordered_set>

namespace lodviz::explore {

namespace {

using PredValue = std::pair<rdf::TermId, rdf::TermId>;

struct PredValueHash {
  size_t operator()(const PredValue& pv) const {
    return std::hash<uint64_t>()((static_cast<uint64_t>(pv.first) << 32) |
                                 pv.second);
  }
};

}  // namespace

std::vector<rdf::TermId> TopValueSubjects(const rdf::TripleSource& source,
                                          rdf::TermId target_property,
                                          size_t k) {
  std::vector<std::pair<double, rdf::TermId>> scored;
  const rdf::Dictionary& dict = source.dict();
  source.Scan({rdf::kInvalidTermId, target_property, rdf::kInvalidTermId},
              [&](const rdf::Triple& t) {
                Result<double> v = dict.NumberValue(t.o);
                if (v.ok()) scored.emplace_back(v.ValueOrDie(), t.s);
                return true;
              });
  std::sort(scored.begin(), scored.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  });
  std::vector<rdf::TermId> out;
  for (size_t i = 0; i < std::min(k, scored.size()); ++i) {
    out.push_back(scored[i].second);
  }
  return out;
}

Result<std::vector<Explanation>> ExplainDeviation(
    const rdf::TripleSource& source, rdf::TermId target_property,
    const std::vector<rdf::TermId>& outliers, size_t top_k) {
  if (outliers.empty()) {
    return Status::InvalidArgument("need at least one outlier entity");
  }
  const rdf::Dictionary& dict = source.dict();
  std::unordered_set<rdf::TermId> outlier_set(outliers.begin(),
                                              outliers.end());

  // Target value per outlier.
  std::unordered_map<rdf::TermId, double> target;
  source.Scan({rdf::kInvalidTermId, target_property, rdf::kInvalidTermId},
              [&](const rdf::Triple& t) {
                if (!outlier_set.count(t.s)) return true;
                Result<double> v = dict.NumberValue(t.o);
                if (v.ok()) target[t.s] = v.ValueOrDie();
                return true;
              });
  if (target.empty()) {
    return Status::NotFound("no outlier has a numeric target value");
  }
  double group_sum = 0.0;
  for (const auto& [s, v] : target) group_sum += v;
  double group_n = static_cast<double>(target.size());
  double group_mean = group_sum / group_n;

  // Facet membership over the outlier group (target property excluded).
  std::unordered_map<PredValue, std::vector<rdf::TermId>, PredValueHash>
      facets;
  source.Scan(rdf::TriplePattern(), [&](const rdf::Triple& t) {
    if (t.p == target_property) return true;
    if (!outlier_set.count(t.s) || !target.count(t.s)) return true;
    facets[{t.p, t.o}].push_back(t.s);
    return true;
  });

  std::vector<Explanation> out;
  for (const auto& [pv, members] : facets) {
    if (members.size() < 2 || members.size() == target.size()) continue;
    double facet_sum = 0.0;
    for (rdf::TermId s : members) facet_sum += target[s];
    double facet_n = static_cast<double>(members.size());
    double mean_without =
        (group_sum - facet_sum) / (group_n - facet_n);
    Explanation e;
    e.predicate = pv.first;
    e.value = pv.second;
    e.predicate_label = dict.term(pv.first).lexical;
    e.value_label = dict.term(pv.second).lexical;
    e.influence = group_mean - mean_without;
    e.support = members.size();
    e.facet_mean = facet_sum / facet_n;
    out.push_back(std::move(e));
  }
  std::sort(out.begin(), out.end(), [](const Explanation& a,
                                       const Explanation& b) {
    if (std::abs(a.influence) != std::abs(b.influence)) {
      return std::abs(a.influence) > std::abs(b.influence);
    }
    return a.support > b.support;
  });
  if (out.size() > top_k) out.resize(top_k);
  return out;
}

}  // namespace lodviz::explore
