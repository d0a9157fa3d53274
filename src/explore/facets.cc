#include "explore/facets.h"

#include <algorithm>
#include <utility>

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
  // With no selection every subject matches, so nothing is tested.
  const bool all_match = selection_.empty();
  std::vector<bool> matches;
  if (!all_match) {
    matches.resize(dict.size() + 1);
    for (rdf::TermId s : matching_) matches[s] = true;
  }

  std::vector<Facet> facets;
  std::vector<std::pair<rdf::TermId, uint64_t>> counts;  // (value, count)
  for (const auto& [pred, total] : source_->PredicateCounts()) {
    if (selection_.count(pred)) continue;  // already constrained
    // A {?, p, ?} scan arrives in POS order: each value's subjects form one
    // run, so a value is counted once per run, over the matching set only.
    counts.clear();
    bool facetable = true;
    source_->ScanRuns(
        {rdf::kInvalidTermId, pred, rdf::kInvalidTermId},
        [&](const rdf::Triple* run, size_t n) {
          for (size_t i = 0; i < n;) {
            const rdf::TermId value = run[i].o;
            uint64_t count = 0;
            for (; i < n && run[i].o == value; ++i) {
              count += all_match || matches[run[i].s];
            }
            if (count == 0) continue;
            // A value's run may continue into the next delivered run.
            if (counts.empty() || counts.back().first != value) {
              if (counts.size() == kMaxFacetValues) {
                facetable = false;
                return false;
              }
              counts.emplace_back(value, 0);
            }
            counts.back().second += count;
          }
          return true;
        });
    if (!facetable || counts.empty()) continue;

    // Count desc, then label asc; two distinct terms can share a label
    // (the IRI x and the literal "x"), so the id breaks the last tie.
    std::sort(counts.begin(), counts.end(),
              [&dict](const auto& a, const auto& b) {
                if (a.second != b.second) return a.second > b.second;
                const std::string& la = dict.term(a.first).lexical;
                const std::string& lb = dict.term(b.first).lexical;
                if (la != lb) return la < lb;
                return a.first < b.first;
              });
    Facet facet;
    facet.predicate = pred;
    facet.label = dict.term(pred).lexical;
    for (size_t i = 0; i < std::min(counts.size(), kTopFacetValues); ++i) {
      const auto& [value, count] = counts[i];
      facet.values.push_back({value, dict.term(value).lexical, count});
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

}  // namespace lodviz::explore
