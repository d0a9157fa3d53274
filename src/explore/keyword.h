#ifndef LODVIZ_EXPLORE_KEYWORD_H_
#define LODVIZ_EXPLORE_KEYWORD_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "rdf/triple_source.h"

namespace lodviz::explore {

/// A scored keyword hit.
struct SearchHit {
  rdf::TermId subject = rdf::kInvalidTermId;
  double score = 0.0;
  std::string label;
};

/// Tf-idf inverted index over the literal objects of a triple source
/// (labels, comments, any text). This is the "Keyword" capability of the
/// survey's Table 2 (VisiNav, LodLive, graphVizdb...): find start nodes by
/// text, then explore structurally from there.
class KeywordIndex {
 public:
  /// Indexes every (subject, literal-object) pair in `source`.
  /// rdfs:label tokens get `label_boost` times the weight.
  static KeywordIndex Build(const rdf::TripleSource& source,
                            double label_boost = 2.0);

  /// Top-k subjects matching the query (AND semantics across terms; falls
  /// back to OR when the conjunction is empty).
  std::vector<SearchHit> Search(const std::string& query,
                                size_t top_k = 10) const;

  size_t num_documents() const { return doc_lengths_.size(); }
  size_t num_terms() const { return postings_.size(); }

 private:
  struct Posting {
    uint32_t doc = 0;  // index into subjects_
    double weight = 0.0;
  };

  std::vector<rdf::TermId> subjects_;          // doc id -> subject term
  std::vector<std::string> labels_;            // doc id -> display label
  std::vector<double> doc_lengths_;            // weighted token count
  std::unordered_map<std::string, std::vector<Posting>> postings_;
};

}  // namespace lodviz::explore

#endif  // LODVIZ_EXPLORE_KEYWORD_H_
