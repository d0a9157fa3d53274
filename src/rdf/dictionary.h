#ifndef LODVIZ_RDF_DICTIONARY_H_
#define LODVIZ_RDF_DICTIONARY_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "rdf/term.h"

namespace lodviz::rdf {

/// Dense integer id assigned to an interned term. Id 0 is reserved
/// (kInvalidTermId); valid ids start at 1.
using TermId = uint32_t;

inline constexpr TermId kInvalidTermId = 0;

/// Parsed value of a literal, cached per TermId at intern time so hot
/// comparison paths (FILTER relations, MIN/MAX) never re-parse
/// lexical forms per row. `kNum`/`kTime` are set only when the literal both
/// claims the type (Term::IsNumericLiteral / IsTemporalLiteral) and parses
/// cleanly; everything else is `kNone` and falls back to the Term-based
/// slow path, so semantics are identical — just computed once.
struct DecodedValue {
  enum class Kind : uint8_t {
    kNone = 0,  // not a decodable literal (or unparseable): use the Term
    kNum,       // numeric literal; `num` holds AsDouble()
    kTime,      // temporal literal; `epoch` holds AsEpochSeconds()
    kBool,      // xsd:boolean literal; `b` holds the EBV
  };
  Kind kind = Kind::kNone;
  double num = 0.0;
  int64_t epoch = 0;
  bool b = false;
};

/// Computes the decoded-value cache entry for `term` (pure function; the
/// dictionary calls it at intern time, plan-time constant folding reuses it
/// for literals that are not interned).
DecodedValue DecodeTerm(const Term& term);

/// Bidirectional term <-> id mapping (dictionary encoding).
///
/// All higher layers (triple store, SPARQL engine, graph, cube) operate on
/// TermIds; strings are touched only at parse/render boundaries. This is the
/// standard RDF-store compression that makes billion-triple handling
/// feasible.
class Dictionary {
 public:
  Dictionary();

  Dictionary(const Dictionary&) = delete;
  Dictionary& operator=(const Dictionary&) = delete;
  Dictionary(Dictionary&&) = default;
  Dictionary& operator=(Dictionary&&) = default;

  /// Interns `term`, returning its id (existing id if already present).
  TermId Intern(const Term& term);

  /// Shorthand interners.
  TermId InternIri(std::string iri) { return Intern(Term::Iri(std::move(iri))); }
  TermId InternLiteral(std::string value, std::string datatype = "") {
    return Intern(Term::Literal(std::move(value), std::move(datatype)));
  }

  /// Looks up an already-interned term; kInvalidTermId if absent.
  [[nodiscard]] TermId Lookup(const Term& term) const;

  /// Fast const access for hot paths; id must be valid (checked in debug
  /// builds — an out-of-range id here means index corruption upstream).
  const Term& term(TermId id) const {
    LODVIZ_DCHECK(Contains(id)) << "term id" << id << "not interned";
    return terms_[id];
  }

  /// Decoded-value cache entry for `id`, computed once at intern time.
  /// Same validity contract as term().
  const DecodedValue& decoded(TermId id) const {
    LODVIZ_DCHECK(Contains(id)) << "term id" << id << "not interned";
    return decoded_[id];
  }

  /// Numeric value of `id` from the decoded table: the cached number of a
  /// numeric literal, else Term::AsDouble() — the same value and the same
  /// errors as re-parsing the term, without the parse for numbers.
  Result<double> NumberValue(TermId id) const {
    const DecodedValue& d = decoded(id);
    if (d.kind == DecodedValue::Kind::kNum) return d.num;
    return term(id).AsDouble();
  }

  /// Plottable scalar of `id`: epoch seconds for a temporal literal (its
  /// AsEpochSeconds() error when it does not parse), else NumberValue().
  /// What the axes, histograms and HETree of a numeric or time property
  /// read.
  Result<double> ScalarValue(TermId id) const;

  [[nodiscard]] bool Contains(TermId id) const {
    return id >= 1 && id < terms_.size();
  }

  /// Number of interned terms.
  size_t size() const { return terms_.size() - 1; }

  /// Approximate heap footprint in bytes (for memory experiments).
  size_t MemoryUsage() const;

 private:
  static std::string MakeKey(const Term& term);

  std::vector<Term> terms_;  // terms_[0] is an unused sentinel
  std::vector<DecodedValue> decoded_;  // parallel to terms_
  std::unordered_map<std::string, TermId> index_;
};

}  // namespace lodviz::rdf

#endif  // LODVIZ_RDF_DICTIONARY_H_
