#include "explore/keyword.h"

#include <algorithm>
#include <cmath>

#include "common/string_util.h"
#include "rdf/vocab.h"

namespace lodviz::explore {

KeywordIndex KeywordIndex::Build(const rdf::TripleSource& source,
                                 double label_boost) {
  KeywordIndex index;
  const rdf::Dictionary& dict = source.dict();
  rdf::TermId label_pred = dict.Lookup(rdf::Term::Iri(rdf::vocab::kRdfsLabel));

  std::unordered_map<rdf::TermId, uint32_t> doc_of;
  // term -> (doc -> weighted term frequency)
  std::unordered_map<std::string, std::unordered_map<uint32_t, double>> tf;

  source.Scan(rdf::TriplePattern(), [&](const rdf::Triple& t) {
    const rdf::Term& obj = dict.term(t.o);
    if (!obj.is_literal()) return true;
    std::vector<std::string> tokens = TokenizeWords(obj.lexical);
    if (tokens.empty()) return true;

    auto [it, inserted] =
        doc_of.emplace(t.s, static_cast<uint32_t>(index.subjects_.size()));
    if (inserted) {
      index.subjects_.push_back(t.s);
      index.labels_.emplace_back();
      index.doc_lengths_.push_back(0.0);
    }
    uint32_t doc = it->second;
    double weight = (label_pred != rdf::kInvalidTermId && t.p == label_pred)
                        ? label_boost
                        : 1.0;
    if (t.p == label_pred && index.labels_[doc].empty()) {
      index.labels_[doc] = obj.lexical;
    }
    for (const std::string& token : tokens) {
      tf[token][doc] += weight;
      index.doc_lengths_[doc] += weight;
    }
    return true;
  });

  // Fill fallback labels with the subject IRI.
  for (size_t d = 0; d < index.subjects_.size(); ++d) {
    if (index.labels_[d].empty()) {
      index.labels_[d] = dict.term(index.subjects_[d]).lexical;
    }
  }

  // Convert to tf-idf postings.
  double n = static_cast<double>(index.subjects_.size());
  for (auto& [term, docs] : tf) {
    double idf = std::log((n + 1.0) / (static_cast<double>(docs.size()) + 1.0)) + 1.0;
    std::vector<Posting>& list = index.postings_[term];
    list.reserve(docs.size());
    for (const auto& [doc, freq] : docs) {
      double norm = std::max(1.0, index.doc_lengths_[doc]);
      list.push_back({doc, freq / norm * idf});
    }
    std::sort(list.begin(), list.end(),
              [](const Posting& a, const Posting& b) { return a.doc < b.doc; });
  }
  return index;
}

std::vector<SearchHit> KeywordIndex::Search(const std::string& query,
                                            size_t top_k) const {
  std::vector<std::string> terms = TokenizeWords(query);
  if (terms.empty()) return {};

  // Accumulate scores and term-match counts per doc.
  std::unordered_map<uint32_t, std::pair<double, int>> scores;
  int matched_terms = 0;
  for (const std::string& term : terms) {
    auto it = postings_.find(term);
    if (it == postings_.end()) continue;
    ++matched_terms;
    for (const Posting& p : it->second) {
      auto& entry = scores[p.doc];
      entry.first += p.weight;
      entry.second += 1;
    }
  }
  if (matched_terms == 0) return {};

  // AND semantics first; OR fallback when no doc has all matched terms.
  std::vector<SearchHit> hits;
  for (int required : {matched_terms, 1}) {
    hits.clear();
    for (const auto& [doc, entry] : scores) {
      if (entry.second < required) continue;
      SearchHit hit;
      hit.subject = subjects_[doc];
      hit.score = entry.first;
      hit.label = labels_[doc];
      hits.push_back(std::move(hit));
    }
    if (!hits.empty()) break;
  }
  std::sort(hits.begin(), hits.end(), [](const SearchHit& a, const SearchHit& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.label < b.label;
  });
  if (hits.size() > top_k) hits.resize(top_k);
  return hits;
}

}  // namespace lodviz::explore
