#ifndef LODVIZ_RDF_NTRIPLES_H_
#define LODVIZ_RDF_NTRIPLES_H_

#include <iosfwd>
#include <string>
#include <string_view>

#include "common/result.h"
#include "rdf/triple_store.h"

namespace lodviz::rdf {

/// A decoded (subject, predicate, object) statement before dictionary
/// encoding.
struct ParsedTriple {
  Term subject;
  Term predicate;
  Term object;
};

/// Parses one N-Triples line ("<s> <p> <o> ." / literals / blanks).
/// Comments (#...) and blank lines yield kNotFound, which callers skip.
Result<ParsedTriple> ParseNTriplesLine(std::string_view line);

/// Parses a single term at the front of `input`, advancing `*pos` past the
/// term and any following whitespace.
Result<Term> ParseTerm(std::string_view input, size_t* pos);

/// Parses a whole N-Triples document into `store`. Returns the number of
/// triples added; stops at the first malformed line unless `strict` is
/// false, in which case bad lines are skipped.
Result<size_t> LoadNTriplesString(std::string_view document,
                                  TripleStore* store, bool strict = true);

/// Serializes the full source as N-Triples (sorted SPO order).
void WriteNTriples(const TripleSource& source, std::ostream& out);

/// Serializes one triple using the source's dictionary.
std::string TripleToNTriples(const TripleSource& source, const Triple& t);

}  // namespace lodviz::rdf

#endif  // LODVIZ_RDF_NTRIPLES_H_
