#include "rdf/triple_source.h"

#include <algorithm>
#include <map>

namespace lodviz::rdf {

void TripleSource::Scan(const TriplePattern& pattern,
                        const ScanFn& fn) const {
  ScanRuns(pattern, [&](const Triple* run, size_t n) {
    for (size_t i = 0; i < n; ++i) {
      if (!fn(run[i])) return false;
    }
    return true;
  });
}

std::vector<Triple> TripleSource::Match(const TriplePattern& pattern) const {
  std::vector<Triple> out;
  ScanRuns(pattern, [&](const Triple* run, size_t n) {
    out.insert(out.end(), run, run + n);
    return true;
  });
  return out;
}

std::vector<TermId> TripleSource::DistinctSubjects() const {
  std::vector<TermId> out;
  ScanRuns(TriplePattern(), [&](const Triple* run, size_t n) {
    for (size_t i = 0; i < n; ++i) {
      if (out.empty() || out.back() != run[i].s) out.push_back(run[i].s);
    }
    return true;
  });
  return out;
}

std::vector<std::pair<TermId, uint64_t>> TripleSource::PredicateCounts()
    const {
  std::map<TermId, uint64_t> counts;
  ScanRuns(TriplePattern(), [&](const Triple* run, size_t n) {
    for (size_t i = 0; i < n; ++i) ++counts[run[i].p];
    return true;
  });
  return {counts.begin(), counts.end()};
}

uint64_t TripleSource::PairCount(TermId s, TermId p) const {
  return Count(TriplePattern(s, p, kInvalidTermId));
}

TripleSource::CardinalityEstimate TripleSource::EstimateCardinality(
    const TriplePattern& pattern) const {
  const double total = static_cast<double>(size());
  if (total == 0) return {0.0, true};
  if (pattern.BoundCount() == 0) return {total, true};

  if (pattern.s != kInvalidTermId && pattern.p != kInvalidTermId) {
    // Exact from the (s,p) aggregate; a bound object still shrinks
    // heuristically on top of it.
    double est = static_cast<double>(PairCount(pattern.s, pattern.p));
    if (pattern.o == kInvalidTermId) return {est, true};
    est /= std::max(1.0, total / 1000.0);
    return {est, false};
  }

  double est = total;
  bool exact = false;
  if (pattern.p != kInvalidTermId) {
    est = static_cast<double>(PredicateCount(pattern.p));
    exact = true;  // p-only is the aggregate itself
  }
  // Heuristic per-position shrink factors for bound subject/object.
  if (pattern.s != kInvalidTermId) {
    est /= std::max(1.0, total / 100.0);
    exact = false;
  }
  if (pattern.o != kInvalidTermId) {
    est /= std::max(1.0, total / 1000.0);
    exact = false;
  }
  return {std::min(est, total), exact};
}

}  // namespace lodviz::rdf
