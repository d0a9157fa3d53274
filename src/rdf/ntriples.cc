#include "rdf/ntriples.h"

#include <cctype>
#include <ostream>

#include "common/string_util.h"

namespace lodviz::rdf {

namespace {

void SkipSpace(std::string_view s, size_t* pos) {
  while (*pos < s.size() && (s[*pos] == ' ' || s[*pos] == '\t')) ++(*pos);
}

}  // namespace

Result<Term> ParseTerm(std::string_view input, size_t* pos) {
  SkipSpace(input, pos);
  if (*pos >= input.size()) {
    return Status::ParseError("unexpected end of line while reading term");
  }
  char c = input[*pos];
  if (c == '<') {
    size_t end = input.find('>', *pos + 1);
    if (end == std::string_view::npos) {
      return Status::ParseError("unterminated IRI");
    }
    Term t = Term::Iri(std::string(input.substr(*pos + 1, end - *pos - 1)));
    *pos = end + 1;
    SkipSpace(input, pos);
    return t;
  }
  if (c == '_') {
    if (*pos + 1 >= input.size() || input[*pos + 1] != ':') {
      return Status::ParseError("malformed blank node");
    }
    // A label runs to whitespace but never ends in '.', so "_:b1." is the
    // label "b1" followed by the terminator, and "_:a.b" keeps its dot.
    size_t start = *pos + 2;
    size_t end = start;
    while (end < input.size() && input[end] != ' ' && input[end] != '\t') ++end;
    while (end > start && input[end - 1] == '.') --end;
    if (end == start) return Status::ParseError("empty blank node label");
    Term t = Term::Blank(std::string(input.substr(start, end - start)));
    *pos = end;
    SkipSpace(input, pos);
    return t;
  }
  if (c == '"') {
    // Find the closing unescaped quote.
    size_t i = *pos + 1;
    while (i < input.size()) {
      if (input[i] == '\\') {
        i += 2;
        continue;
      }
      if (input[i] == '"') break;
      ++i;
    }
    if (i >= input.size()) return Status::ParseError("unterminated literal");
    LODVIZ_ASSIGN_OR_RETURN(
        std::string value,
        UnescapeNTriplesString(input.substr(*pos + 1, i - *pos - 1)));
    *pos = i + 1;
    Term t = Term::Literal(std::move(value));
    if (*pos < input.size() && input[*pos] == '@') {
      size_t start = *pos + 1;
      size_t end = start;
      while (end < input.size() &&
             (std::isalnum(static_cast<unsigned char>(input[end])) ||
              input[end] == '-')) {
        ++end;
      }
      if (end == start) return Status::ParseError("empty language tag");
      t.language = std::string(input.substr(start, end - start));
      *pos = end;
    } else if (*pos + 1 < input.size() && input[*pos] == '^' &&
               input[*pos + 1] == '^') {
      *pos += 2;
      if (*pos >= input.size() || input[*pos] != '<') {
        return Status::ParseError("datatype must be an IRI");
      }
      size_t end = input.find('>', *pos + 1);
      if (end == std::string_view::npos) {
        return Status::ParseError("unterminated datatype IRI");
      }
      t.datatype = std::string(input.substr(*pos + 1, end - *pos - 1));
      *pos = end + 1;
    }
    SkipSpace(input, pos);
    return t;
  }
  return Status::ParseError(std::string("unexpected character '") + c +
                            "' at start of term");
}

Result<ParsedTriple> ParseNTriplesLine(std::string_view line) {
  std::string_view trimmed = TrimWhitespace(line);
  if (trimmed.empty() || trimmed[0] == '#') {
    return Status::NotFound("blank or comment line");
  }
  size_t pos = 0;
  ParsedTriple pt;
  LODVIZ_ASSIGN_OR_RETURN(pt.subject, ParseTerm(trimmed, &pos));
  if (pt.subject.is_literal()) {
    return Status::ParseError("literal in subject position");
  }
  LODVIZ_ASSIGN_OR_RETURN(pt.predicate, ParseTerm(trimmed, &pos));
  if (!pt.predicate.is_iri()) {
    return Status::ParseError("predicate must be an IRI");
  }
  LODVIZ_ASSIGN_OR_RETURN(pt.object, ParseTerm(trimmed, &pos));
  if (pos >= trimmed.size() || trimmed[pos] != '.') {
    return Status::ParseError("missing terminating '.'");
  }
  // Only whitespace or a comment may follow the terminator.
  ++pos;
  SkipSpace(trimmed, &pos);
  if (pos < trimmed.size() && trimmed[pos] != '#') {
    return Status::ParseError("unexpected text after terminating '.'");
  }
  return pt;
}

Result<size_t> LoadNTriplesString(std::string_view document,
                                  TripleStore* store, bool strict) {
  size_t added = 0;
  size_t line_no = 0;
  size_t start = 0;
  while (start <= document.size()) {
    size_t end = document.find('\n', start);
    std::string_view line = document.substr(
        start, end == std::string_view::npos ? std::string_view::npos
                                             : end - start);
    ++line_no;
    if (!line.empty() || end != std::string_view::npos) {
      Result<ParsedTriple> r = ParseNTriplesLine(line);
      if (r.ok()) {
        const ParsedTriple& pt = r.ValueOrDie();
        store->Add(pt.subject, pt.predicate, pt.object);
        ++added;
      } else if (r.status().code() != StatusCode::kNotFound) {
        if (strict) {
          return Status::ParseError("line " + std::to_string(line_no) + ": " +
                                    r.status().message());
        }
      }
    }
    if (end == std::string_view::npos) break;
    start = end + 1;
  }
  return added;
}

std::string TripleToNTriples(const TripleSource& source, const Triple& t) {
  const Dictionary& dict = source.dict();
  return dict.term(t.s).ToNTriples() + " " + dict.term(t.p).ToNTriples() +
         " " + dict.term(t.o).ToNTriples() + " .";
}

void WriteNTriples(const TripleSource& source, std::ostream& out) {
  source.Scan(TriplePattern(), [&](const Triple& t) {
    out << TripleToNTriples(source, t) << "\n";
    return true;
  });
}

}  // namespace lodviz::rdf
