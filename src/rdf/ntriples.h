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

/// Parses a whole N-Triples document into `store`, one statement per line:
/// subject, predicate, object and '.', then only spaces, tabs or a '#'
/// comment. Blank and comment lines are skipped. Returns the number of
/// triples added; stops at the first malformed line, naming it.
Result<size_t> LoadNTriplesString(std::string_view document,
                                  TripleStore* store);

/// Serializes the full source as N-Triples (sorted SPO order).
void WriteNTriples(const TripleSource& source, std::ostream& out);

/// Serializes one triple using the source's dictionary.
std::string TripleToNTriples(const TripleSource& source, const Triple& t);

}  // namespace lodviz::rdf

#endif  // LODVIZ_RDF_NTRIPLES_H_
