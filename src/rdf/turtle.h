#ifndef LODVIZ_RDF_TURTLE_H_
#define LODVIZ_RDF_TURTLE_H_

#include <string_view>

#include "common/result.h"
#include "rdf/triple_store.h"

namespace lodviz::rdf {

/// Parses a Turtle document (the Web of Data's lingua franca) into
/// `store`. Returns the number of triples added.
///
/// Supported subset:
///   @prefix / PREFIX and @base / BASE declarations
///   prefixed names and <IRIs> (resolved against the base unless they
///   start with a scheme such as "http:" or "urn:")
///   'a' for rdf:type; ';' and ',' predicate/object lists
///   literals: "..." and """...""" with @lang or ^^datatype,
///             integers/decimals/doubles, true/false
///   blank nodes: _:label (letters, digits, '_', '-', non-ASCII bytes,
///                and inner '.') and anonymous [ p o ; ... ] property lists
///   comments (#) and arbitrary whitespace
///
/// Not supported (errors): collections ( ... ), RDF-star, quoted graphs.
Result<size_t> LoadTurtleString(std::string_view document, TripleStore* store);

}  // namespace lodviz::rdf

#endif  // LODVIZ_RDF_TURTLE_H_
