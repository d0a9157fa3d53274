#include "explore/interest.h"

#include <algorithm>
#include <map>
#include <unordered_map>

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

void InterestModel::MarkInteresting(rdf::TermId subject) {
  marked_.insert(subject);
}

std::vector<InterestSignal> InterestModel::TopSignals(size_t k) const {
  if (marked_.empty()) return {};
  const rdf::Dictionary& dict = source_->dict();

  // Count (predicate, value) occurrences among marked subjects and among
  // distinct subjects overall. Only IRI/literal object values qualify.
  std::unordered_map<PredValue, uint64_t, PredValueHash> marked_counts;
  std::unordered_map<PredValue, uint64_t, PredValueHash> all_counts;
  std::unordered_set<rdf::TermId> all_subjects;
  source_->Scan(rdf::TriplePattern(), [&](const rdf::Triple& t) {
    all_subjects.insert(t.s);
    PredValue pv{t.p, t.o};
    ++all_counts[pv];
    if (marked_.count(t.s)) ++marked_counts[pv];
    return true;
  });

  double n_all = static_cast<double>(all_subjects.size());
  double n_marked = static_cast<double>(marked_.size());
  if (n_all == 0) return {};

  std::vector<InterestSignal> signals;
  for (const auto& [pv, support] : marked_counts) {
    // Ignore values every marked entity trivially has in common with the
    // whole dataset or that only one marked entity carries (noise).
    if (support < std::max<uint64_t>(1, marked_.size() / 2)) continue;
    double p_marked = static_cast<double>(support) / n_marked;
    double p_all = static_cast<double>(all_counts[pv]) / n_all;
    if (p_all <= 0) continue;
    double lift = p_marked / p_all;
    if (lift <= 1.05) continue;  // not discriminating
    InterestSignal signal;
    signal.predicate = pv.first;
    signal.value = pv.second;
    signal.predicate_label = dict.term(pv.first).lexical;
    signal.value_label = dict.term(pv.second).lexical;
    signal.lift = lift;
    signal.support = support;
    signals.push_back(std::move(signal));
  }
  std::sort(signals.begin(), signals.end(),
            [](const InterestSignal& a, const InterestSignal& b) {
              if (a.lift != b.lift) return a.lift > b.lift;
              return a.support > b.support;
            });
  if (signals.size() > k) signals.resize(k);
  return signals;
}

std::vector<std::pair<rdf::TermId, double>> InterestModel::SuggestEntities(
    size_t k) const {
  std::vector<InterestSignal> signals = TopSignals(25);
  if (signals.empty()) return {};

  std::unordered_map<rdf::TermId, double> scores;
  for (const InterestSignal& signal : signals) {
    source_->Scan({rdf::kInvalidTermId, signal.predicate, signal.value},
                  [&](const rdf::Triple& t) {
                    if (!marked_.count(t.s)) scores[t.s] += signal.lift;
                    return true;
                  });
  }
  std::vector<std::pair<rdf::TermId, double>> ranked(scores.begin(),
                                                     scores.end());
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  if (ranked.size() > k) ranked.resize(k);
  return ranked;
}

}  // namespace lodviz::explore
