#include "rdf/turtle.h"

#include <algorithm>
#include <cctype>
#include <unordered_map>

#include "common/string_util.h"
#include "rdf/vocab.h"

namespace lodviz::rdf {

namespace {

/// True when `iri` starts with a scheme (RFC 3986: ALPHA *(ALPHA / DIGIT /
/// "+" / "-" / ".") ":"), that is, when it is absolute.
bool HasScheme(std::string_view iri) {
  const size_t colon = iri.find(':');
  if (colon == std::string_view::npos || colon == 0 ||
      !std::isalpha(static_cast<unsigned char>(iri[0]))) {
    return false;
  }
  return std::all_of(iri.begin() + 1, iri.begin() + colon, [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '+' ||
           c == '-' || c == '.';
  });
}

/// Recursive-descent Turtle parser over a raw character buffer.
class TurtleParser {
 public:
  TurtleParser(std::string_view input, TripleStore* store)
      : in_(input), store_(store) {}

  Result<size_t> Parse() {
    while (true) {
      SkipWs();
      if (pos_ >= in_.size()) break;
      LODVIZ_RETURN_NOT_OK(ParseStatement());
    }
    return added_;
  }

 private:
  void SkipWs() {
    while (pos_ < in_.size()) {
      char c = in_[pos_];
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '#') {
        while (pos_ < in_.size() && in_[pos_] != '\n') ++pos_;
      } else {
        break;
      }
    }
  }

  bool LookingAt(std::string_view word) const {
    return in_.substr(pos_, word.size()) == word;
  }

  /// Case-insensitive keyword match followed by whitespace.
  bool LookingAtKeyword(std::string_view word) const {
    if (pos_ + word.size() > in_.size()) return false;
    for (size_t i = 0; i < word.size(); ++i) {
      if (std::tolower(static_cast<unsigned char>(in_[pos_ + i])) !=
          std::tolower(static_cast<unsigned char>(word[i]))) {
        return false;
      }
    }
    size_t after = pos_ + word.size();
    return after >= in_.size() ||
           std::isspace(static_cast<unsigned char>(in_[after]));
  }

  Status Err(std::string msg) const {
    return Status::ParseError(msg + " at offset " + std::to_string(pos_));
  }

  Status Expect(char c) {
    SkipWs();
    if (pos_ >= in_.size() || in_[pos_] != c) {
      return Err(std::string("expected '") + c + "'");
    }
    ++pos_;
    return Status::OK();
  }

  Status ParseStatement() {
    if (LookingAt("@prefix") || LookingAtKeyword("PREFIX")) {
      bool at_form = in_[pos_] == '@';
      pos_ += at_form ? 7 : 6;
      LODVIZ_RETURN_NOT_OK(ParsePrefixDecl());
      if (at_form) LODVIZ_RETURN_NOT_OK(Expect('.'));
      return Status::OK();
    }
    if (LookingAt("@base") || LookingAtKeyword("BASE")) {
      bool at_form = in_[pos_] == '@';
      pos_ += at_form ? 5 : 4;
      SkipWs();
      LODVIZ_ASSIGN_OR_RETURN(std::string iri, ParseIriRef());
      base_ = std::move(iri);
      if (at_form) LODVIZ_RETURN_NOT_OK(Expect('.'));
      return Status::OK();
    }
    // Triples block.
    LODVIZ_ASSIGN_OR_RETURN(Term subject, ParseSubject());
    LODVIZ_RETURN_NOT_OK(ParsePredicateObjectList(subject));
    return Expect('.');
  }

  Status ParsePrefixDecl() {
    SkipWs();
    size_t colon = in_.find(':', pos_);
    if (colon == std::string_view::npos) return Err("missing ':' in prefix");
    std::string name(TrimWhitespace(in_.substr(pos_, colon - pos_)));
    pos_ = colon + 1;
    SkipWs();
    LODVIZ_ASSIGN_OR_RETURN(std::string iri, ParseIriRef());
    prefixes_[name] = std::move(iri);
    return Status::OK();
  }

  Result<std::string> ParseIriRef() {
    SkipWs();
    LODVIZ_ASSIGN_OR_RETURN(std::string_view ref, ScanIriRef(in_, &pos_));
    // Resolve relative IRIs against the base (simple concatenation
    // resolution, sufficient for test data).
    if (!base_.empty() && !HasScheme(ref)) return base_ + std::string(ref);
    return std::string(ref);
  }

  Result<Term> ParseSubject() {
    SkipWs();
    if (pos_ >= in_.size()) return Err("expected subject");
    char c = in_[pos_];
    if (c == '<') {
      LODVIZ_ASSIGN_OR_RETURN(std::string iri, ParseIriRef());
      return Term::Iri(std::move(iri));
    }
    if (c == '_') return ParseBlankLabel();
    if (c == '[') return ParseAnonBlank();
    return ParsePName();
  }

  Result<Term> ParseBlankLabel() {
    LODVIZ_ASSIGN_OR_RETURN(std::string_view label,
                            ScanBlankLabel(in_, &pos_));
    return Term::Blank(std::string(label));
  }

  /// '[' predicateObjectList ']': emits the nested triples and returns the
  /// fresh blank node.
  Result<Term> ParseAnonBlank() {
    ++pos_;  // '['
    Term node = Term::Blank("anon" + std::to_string(next_anon_++));
    SkipWs();
    if (pos_ < in_.size() && in_[pos_] == ']') {
      ++pos_;
      return node;
    }
    LODVIZ_RETURN_NOT_OK(ParsePredicateObjectList(node));
    LODVIZ_RETURN_NOT_OK(Expect(']'));
    return node;
  }

  Result<Term> ParsePName() {
    size_t end = pos_;
    while (end < in_.size()) {
      char c = in_[end];
      if (std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
          c == '-' || c == ':' || c == '.' || c == '/') {
        ++end;
      } else {
        break;
      }
    }
    std::string pname(in_.substr(pos_, end - pos_));
    // Trailing '.' is the statement terminator.
    while (!pname.empty() && pname.back() == '.') {
      pname.pop_back();
      --end;
    }
    size_t colon = pname.find(':');
    if (colon == std::string::npos) {
      return Err("expected prefixed name, got '" + pname + "'");
    }
    auto it = prefixes_.find(pname.substr(0, colon));
    if (it == prefixes_.end()) {
      return Status::ParseError("unknown prefix '" + pname.substr(0, colon) +
                                ":' at offset " + std::to_string(pos_));
    }
    pos_ = end;
    return Term::Iri(it->second + pname.substr(colon + 1));
  }

  Result<Term> ParseVerb() {
    SkipWs();
    if (pos_ < in_.size() && in_[pos_] == 'a') {
      size_t after = pos_ + 1;
      if (after >= in_.size() ||
          std::isspace(static_cast<unsigned char>(in_[after]))) {
        ++pos_;
        return Term::Iri(vocab::kRdfType);
      }
    }
    if (pos_ < in_.size() && in_[pos_] == '<') {
      LODVIZ_ASSIGN_OR_RETURN(std::string iri, ParseIriRef());
      return Term::Iri(std::move(iri));
    }
    return ParsePName();
  }

  Result<Term> ParseObject() {
    SkipWs();
    if (pos_ >= in_.size()) return Err("expected object");
    char c = in_[pos_];
    if (c == '<') {
      LODVIZ_ASSIGN_OR_RETURN(std::string iri, ParseIriRef());
      return Term::Iri(std::move(iri));
    }
    if (c == '_') return ParseBlankLabel();
    if (c == '[') return ParseAnonBlank();
    if (c == '"' || c == '\'') return ParseLiteral();
    if (c == '(') return Err("RDF collections are not supported");
    if (std::isdigit(static_cast<unsigned char>(c)) || c == '+' || c == '-') {
      return ParseNumber();
    }
    if (LookingAtTrueFalse()) {
      bool value = in_[pos_] == 't';
      pos_ += value ? 4 : 5;
      return Term::BoolLiteral(value);
    }
    return ParsePName();
  }

  bool LookingAtTrueFalse() const {
    auto boundary = [&](size_t after) {
      return after >= in_.size() ||
             !(std::isalnum(static_cast<unsigned char>(in_[after])) ||
               in_[after] == '_');
    };
    if (in_.substr(pos_, 4) == "true" && boundary(pos_ + 4)) return true;
    if (in_.substr(pos_, 5) == "false" && boundary(pos_ + 5)) return true;
    return false;
  }

  Result<Term> ParseNumber() {
    size_t end = pos_;
    if (in_[end] == '+' || in_[end] == '-') ++end;
    bool dot = false, exp = false;
    while (end < in_.size()) {
      char c = in_[end];
      if (std::isdigit(static_cast<unsigned char>(c))) {
        ++end;
      } else if (c == '.' && !dot && !exp && end + 1 < in_.size() &&
                 std::isdigit(static_cast<unsigned char>(in_[end + 1]))) {
        dot = true;
        ++end;
      } else if ((c == 'e' || c == 'E') && !exp) {
        exp = true;
        ++end;
        if (end < in_.size() && (in_[end] == '+' || in_[end] == '-')) ++end;
      } else {
        break;
      }
    }
    std::string text(in_.substr(pos_, end - pos_));
    pos_ = end;
    const char* dt = exp   ? vocab::kXsdDouble
                     : dot ? vocab::kXsdDecimal
                           : vocab::kXsdInteger;
    return Term::Literal(std::move(text), dt);
  }

  Result<Term> ParseLiteral() {
    std::string value;
    const std::string_view long_quote = in_[pos_] == '"' ? "\"\"\"" : "'''";
    if (in_.substr(pos_, 3) == long_quote) {
      size_t end = in_.find(long_quote, pos_ + 3);
      if (end == std::string_view::npos) return Err("unterminated long string");
      LODVIZ_ASSIGN_OR_RETURN(
          value, UnescapeNTriplesString(in_.substr(pos_ + 3, end - pos_ - 3)));
      pos_ = end + 3;
    } else {
      LODVIZ_ASSIGN_OR_RETURN(value, ScanQuotedString(in_, &pos_));
    }
    Term t = Term::Literal(std::move(value));
    if (pos_ < in_.size() && in_[pos_] == '@') {
      LODVIZ_ASSIGN_OR_RETURN(std::string_view lang, ScanLangTag(in_, &pos_));
      t.language = lang;
    } else if (in_.substr(pos_, 2) == "^^") {
      pos_ += 2;
      SkipWs();
      if (pos_ < in_.size() && in_[pos_] == '<') {
        LODVIZ_ASSIGN_OR_RETURN(std::string dt, ParseIriRef());
        t.datatype = std::move(dt);
      } else {
        LODVIZ_ASSIGN_OR_RETURN(Term dt, ParsePName());
        t.datatype = dt.lexical;
      }
    }
    return t;
  }

  Status ParsePredicateObjectList(const Term& subject) {
    while (true) {
      LODVIZ_ASSIGN_OR_RETURN(Term predicate, ParseVerb());
      if (!predicate.is_iri()) return Err("predicate must be an IRI");
      while (true) {
        LODVIZ_ASSIGN_OR_RETURN(Term object, ParseObject());
        store_->Add(subject, predicate, object);
        ++added_;
        SkipWs();
        if (pos_ < in_.size() && in_[pos_] == ',') {
          ++pos_;
          continue;
        }
        break;
      }
      SkipWs();
      if (pos_ < in_.size() && in_[pos_] == ';') {
        ++pos_;
        SkipWs();
        // A ';' may be followed directly by '.' or ']' (trailing semicolon).
        if (pos_ < in_.size() && (in_[pos_] == '.' || in_[pos_] == ']')) break;
        continue;
      }
      break;
    }
    return Status::OK();
  }

  std::string_view in_;
  TripleStore* store_;
  size_t pos_ = 0;
  size_t added_ = 0;
  uint64_t next_anon_ = 0;
  std::string base_;
  std::unordered_map<std::string, std::string> prefixes_;
};

}  // namespace

Result<size_t> LoadTurtleString(std::string_view document,
                                TripleStore* store) {
  TurtleParser parser(document, store);
  return parser.Parse();
}

}  // namespace lodviz::rdf
