#include "rdf/ntriples.h"

#include <algorithm>
#include <ostream>

#include "common/string_util.h"

namespace lodviz::rdf {

namespace {

void SkipSpace(std::string_view s, size_t* pos) {
  while (*pos < s.size() && (s[*pos] == ' ' || s[*pos] == '\t')) ++(*pos);
}

/// Reads an IRI, a blank node or a literal with its language tag or
/// datatype, after any spaces.
Result<Term> ReadTerm(std::string_view line, size_t* pos) {
  SkipSpace(line, pos);
  const char c = *pos < line.size() ? line[*pos] : '\0';
  if (c == '<') {
    LODVIZ_ASSIGN_OR_RETURN(std::string_view iri, ScanIriRef(line, pos));
    return Term::Iri(std::string(iri));
  }
  if (c == '_') {
    LODVIZ_ASSIGN_OR_RETURN(std::string_view label, ScanBlankLabel(line, pos));
    return Term::Blank(std::string(label));
  }
  if (c != '"') {
    return Status::ParseError("expected a term at offset " +
                              std::to_string(*pos));
  }
  LODVIZ_ASSIGN_OR_RETURN(std::string value, ScanQuotedString(line, pos));
  Term t = Term::Literal(std::move(value));
  if (*pos < line.size() && line[*pos] == '@') {
    LODVIZ_ASSIGN_OR_RETURN(std::string_view lang, ScanLangTag(line, pos));
    t.language = lang;
  } else if (line.substr(*pos, 2) == "^^") {
    *pos += 2;
    LODVIZ_ASSIGN_OR_RETURN(std::string_view datatype, ScanIriRef(line, pos));
    t.datatype = datatype;
  }
  return t;
}

/// Adds the statement on one line to `store`; a blank or comment line adds
/// nothing.
Status LoadLine(std::string_view line, TripleStore* store, size_t* added) {
  line = TrimWhitespace(line);
  if (line.empty() || line[0] == '#') return Status::OK();
  size_t pos = 0;
  LODVIZ_ASSIGN_OR_RETURN(Term subject, ReadTerm(line, &pos));
  if (subject.is_literal()) {
    return Status::ParseError("literal in subject position");
  }
  LODVIZ_ASSIGN_OR_RETURN(Term predicate, ReadTerm(line, &pos));
  if (!predicate.is_iri()) {
    return Status::ParseError("predicate must be an IRI");
  }
  LODVIZ_ASSIGN_OR_RETURN(Term object, ReadTerm(line, &pos));
  SkipSpace(line, &pos);
  if (pos >= line.size() || line[pos] != '.') {
    return Status::ParseError("missing terminating '.'");
  }
  ++pos;
  SkipSpace(line, &pos);
  if (pos < line.size() && line[pos] != '#') {
    return Status::ParseError("unexpected text after terminating '.'");
  }
  store->Add(subject, predicate, object);
  ++*added;
  return Status::OK();
}

}  // namespace

Result<size_t> LoadNTriplesString(std::string_view document,
                                  TripleStore* store) {
  size_t added = 0;
  size_t line_no = 0;
  for (size_t start = 0; start < document.size();) {
    const size_t end = std::min(document.find('\n', start), document.size());
    ++line_no;
    Status st = LoadLine(document.substr(start, end - start), store, &added);
    if (!st.ok()) {
      return Status::ParseError("line " + std::to_string(line_no) + ": " +
                                st.message());
    }
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
