#include "explore/keyword.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

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
  // The posting list of each query term the index holds, in query order.
  std::vector<const std::vector<Posting>*> lists;
  for (const std::string& term : TokenizeWords(query)) {
    auto it = postings_.find(term);
    if (it != postings_.end()) lists.push_back(&it->second);
  }
  if (lists.empty()) return {};

  // Every list ascends by doc, so merging them visits each matching doc
  // once and adds its weights in query order.
  struct Scored {
    double score = 0.0;
    uint32_t doc = 0;
    size_t matched = 0;
  };
  std::vector<Scored> scored;
  std::vector<size_t> next(lists.size(), 0);
  for (;;) {
    uint32_t doc = UINT32_MAX;
    for (size_t l = 0; l < lists.size(); ++l) {
      if (next[l] < lists[l]->size()) {
        doc = std::min(doc, (*lists[l])[next[l]].doc);
      }
    }
    if (doc == UINT32_MAX) break;
    Scored entry;
    entry.doc = doc;
    for (size_t l = 0; l < lists.size(); ++l) {
      if (next[l] < lists[l]->size() && (*lists[l])[next[l]].doc == doc) {
        entry.score += (*lists[l])[next[l]++].weight;
        ++entry.matched;
      }
    }
    scored.push_back(entry);
  }

  // AND semantics first; OR fallback when no doc has all matched terms.
  const size_t all = lists.size();
  if (std::any_of(scored.begin(), scored.end(),
                  [all](const Scored& e) { return e.matched == all; })) {
    std::erase_if(scored, [all](const Scored& e) { return e.matched < all; });
  }

  // Only the returned hits are ordered and copy their labels.
  const size_t k = std::min(top_k, scored.size());
  std::partial_sort(scored.begin(), scored.begin() + k, scored.end(),
                    [this](const Scored& a, const Scored& b) {
                      if (a.score != b.score) return a.score > b.score;
                      const int c = labels_[a.doc].compare(labels_[b.doc]);
                      if (c != 0) return c < 0;
                      return subjects_[a.doc] < subjects_[b.doc];
                    });
  std::vector<SearchHit> hits;
  hits.reserve(k);
  for (size_t i = 0; i < k; ++i) {
    const uint32_t doc = scored[i].doc;
    hits.push_back({subjects_[doc], scored[i].score, labels_[doc]});
  }
  return hits;
}

}  // namespace lodviz::explore
