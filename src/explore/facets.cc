#include "explore/facets.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

namespace lodviz::explore {

namespace {

/// Max distinct values (over the matching set) for a predicate to qualify
/// as a facet.
constexpr uint64_t kMaxFacetValues = 64;
/// Max values listed per facet (top by count).
constexpr size_t kTopFacetValues = 20;

}  // namespace

FacetedBrowser::FacetedBrowser(const rdf::TripleSource* source)
    : source_(source) {
  Recompute();
}

void FacetedBrowser::Recompute() {
  if (selection_.empty()) {
    matching_ = source_->DistinctSubjects();
    return;
  }
  // Intersect subjects per constraint, starting from the most selective.
  std::vector<std::vector<rdf::TermId>> subject_sets;
  for (const auto& [pred, value] : selection_) {
    std::vector<rdf::TermId> subjects;
    source_->Scan({rdf::kInvalidTermId, pred, value},
                  [&](const rdf::Triple& t) {
                    subjects.push_back(t.s);
                    return true;
                  });
    std::sort(subjects.begin(), subjects.end());
    subjects.erase(std::unique(subjects.begin(), subjects.end()),
                   subjects.end());
    subject_sets.push_back(std::move(subjects));
  }
  std::sort(subject_sets.begin(), subject_sets.end(),
            [](const auto& a, const auto& b) { return a.size() < b.size(); });
  matching_ = subject_sets.front();
  for (size_t i = 1; i < subject_sets.size(); ++i) {
    std::vector<rdf::TermId> merged;
    std::set_intersection(matching_.begin(), matching_.end(),
                          subject_sets[i].begin(), subject_sets[i].end(),
                          std::back_inserter(merged));
    matching_ = std::move(merged);
  }
}

std::vector<Facet> FacetedBrowser::Facets() const {
  const rdf::Dictionary& dict = source_->dict();
  std::unordered_set<rdf::TermId> match_set(matching_.begin(),
                                            matching_.end());

  std::vector<Facet> facets;
  for (const auto& [pred, total] : source_->PredicateCounts()) {
    if (selection_.count(pred)) continue;  // already constrained
    // Count values over the matching set only.
    std::unordered_map<rdf::TermId, uint64_t> counts;
    bool facetable = true;
    source_->Scan({rdf::kInvalidTermId, pred, rdf::kInvalidTermId},
                  [&](const rdf::Triple& t) {
                    if (!match_set.count(t.s)) return true;
                    ++counts[t.o];
                    if (counts.size() > kMaxFacetValues) {
                      facetable = false;
                      return false;
                    }
                    return true;
                  });
    if (!facetable || counts.empty()) continue;

    Facet facet;
    facet.predicate = pred;
    facet.label = dict.term(pred).lexical;
    for (const auto& [value, count] : counts) {
      FacetValue fv;
      fv.value = value;
      fv.label = dict.term(value).lexical;
      fv.count = count;
      facet.values.push_back(std::move(fv));
    }
    std::sort(facet.values.begin(), facet.values.end(),
              [](const FacetValue& a, const FacetValue& b) {
                if (a.count != b.count) return a.count > b.count;
                return a.label < b.label;
              });
    if (facet.values.size() > kTopFacetValues) {
      facet.values.resize(kTopFacetValues);
    }
    facets.push_back(std::move(facet));
  }
  std::sort(facets.begin(), facets.end(),
            [](const Facet& a, const Facet& b) { return a.label < b.label; });
  return facets;
}

Status FacetedBrowser::Select(rdf::TermId predicate, rdf::TermId value) {
  const rdf::Dictionary& dict = source_->dict();
  if (!dict.Contains(predicate) || !dict.Contains(value)) {
    return Status::NotFound("unknown predicate or value term");
  }
  selection_[predicate] = value;
  Recompute();
  return Status::OK();
}

Status FacetedBrowser::Deselect(rdf::TermId predicate) {
  if (selection_.erase(predicate) == 0) {
    return Status::NotFound("predicate was not selected");
  }
  Recompute();
  return Status::OK();
}

void FacetedBrowser::Reset() {
  selection_.clear();
  Recompute();
}

}  // namespace lodviz::explore
