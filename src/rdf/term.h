#ifndef LODVIZ_RDF_TERM_H_
#define LODVIZ_RDF_TERM_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/result.h"

namespace lodviz::rdf {

/// The three RDF term kinds.
enum class TermKind : uint8_t {
  kIri = 0,
  kLiteral = 1,
  kBlank = 2,
};

/// An RDF term: IRI, literal (with optional datatype IRI or language tag),
/// or blank node. A passive value type; the dictionary (dictionary.h) maps
/// terms to dense integer ids used everywhere else.
struct Term {
  TermKind kind = TermKind::kIri;
  /// IRI string, literal lexical form, or blank node label.
  std::string lexical;
  /// Datatype IRI for typed literals; empty otherwise.
  std::string datatype;
  /// Language tag for language-tagged literals; empty otherwise.
  std::string language;

  static Term Iri(std::string iri) {
    Term t;
    t.kind = TermKind::kIri;
    t.lexical = std::move(iri);
    return t;
  }

  static Term Literal(std::string value, std::string datatype_iri = "") {
    Term t;
    t.kind = TermKind::kLiteral;
    t.lexical = std::move(value);
    t.datatype = std::move(datatype_iri);
    return t;
  }

  static Term LangLiteral(std::string value, std::string lang) {
    Term t;
    t.kind = TermKind::kLiteral;
    t.lexical = std::move(value);
    t.language = std::move(lang);
    return t;
  }

  static Term Blank(std::string label) {
    Term t;
    t.kind = TermKind::kBlank;
    t.lexical = std::move(label);
    return t;
  }

  /// Convenience constructors for typed literals.
  static Term DoubleLiteral(double value);
  static Term IntLiteral(int64_t value);
  static Term BoolLiteral(bool value);
  /// Seconds since epoch, rendered as xsd:dateTime "YYYY-MM-DDThh:mm:ssZ".
  static Term DateTimeLiteral(int64_t epoch_seconds);

  bool is_iri() const { return kind == TermKind::kIri; }
  bool is_literal() const { return kind == TermKind::kLiteral; }
  bool is_blank() const { return kind == TermKind::kBlank; }

  /// True for literals whose datatype is one of the xsd numeric types (or
  /// untyped lexical forms that parse as numbers).
  bool IsNumericLiteral() const;
  /// True for xsd:dateTime / xsd:date literals.
  bool IsTemporalLiteral() const;

  /// Numeric value of a literal; error if not parseable.
  Result<double> AsDouble() const;
  /// Epoch seconds of an xsd:dateTime/xsd:date literal.
  Result<int64_t> AsEpochSeconds() const;

  /// Canonical N-Triples serialization (<iri>, "lit"^^<dt>, _:b).
  std::string ToNTriples() const;

  bool operator==(const Term& other) const {
    return kind == other.kind && lexical == other.lexical &&
           datatype == other.datatype && language == other.language;
  }
  bool operator!=(const Term& other) const { return !(*this == other); }
};

/// Escapes a string for N-Triples double-quoted literals.
std::string EscapeNTriplesString(std::string_view s);
/// Reverses EscapeNTriplesString; error on malformed escapes.
Result<std::string> UnescapeNTriplesString(std::string_view s);

/// Term scanners: the one place where the N-Triples loader, the Turtle
/// parser and the SPARQL lexer decide where a term ends. Each reads one
/// token starting at `in[*pos]`. On success it moves `*pos` past the token;
/// on error it leaves `*pos` alone and the message names the offset.
///
/// IRIREF: '<', then no byte <= 0x20 and none of <>"{}|^`, then '>'.
/// Returns the text between the brackets; a backslash is kept verbatim.
Result<std::string_view> ScanIriRef(std::string_view in, size_t* pos);
/// "_:" and a label of ASCII letters, digits, '_', '-', bytes >= 0x80 and
/// '.' anywhere but at the end. Returns the label.
Result<std::string_view> ScanBlankLabel(std::string_view in, size_t* pos);
/// A short string quoted by '"' or '\'' (Turtle and SPARQL allow both),
/// its escapes as in N-Triples; returns the unescaped value.
Result<std::string> ScanQuotedString(std::string_view in, size_t* pos);
/// '@' and a language tag of letters, digits and '-'. Returns the tag.
Result<std::string_view> ScanLangTag(std::string_view in, size_t* pos);

/// Parses "YYYY-MM-DD[Thh:mm:ss[Z]]" into epoch seconds (UTC, proleptic
/// Gregorian).
Result<int64_t> ParseDateTime(std::string_view s);
/// Inverse of ParseDateTime; always renders full dateTime with Z.
std::string FormatDateTime(int64_t epoch_seconds);

}  // namespace lodviz::rdf

#endif  // LODVIZ_RDF_TERM_H_
