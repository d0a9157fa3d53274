#ifndef LODVIZ_SERVE_SERIALIZE_H_
#define LODVIZ_SERVE_SERIALIZE_H_

#include <string>
#include <vector>

#include "rdf/ntriples.h"
#include "sparql/result_table.h"

namespace lodviz::serve {

/// Result serialization for the SPARQL protocol endpoint. Two formats:
///
///  - JSON, following the shape of the SPARQL 1.1 Query Results JSON
///    format: {"head":{"vars":[...]},"results":{"bindings":[...]}} with
///    per-cell {"type","value"[,"xml:lang"|"datatype"]} objects, and
///    {"head":{},"boolean":b} for ASK. String escaping goes through the
///    UTF-8-hardened obs::JsonEscape, so hostile literals (control bytes,
///    truncated UTF-8 sequences) cannot break the envelope.
///  - TSV, one header row of ?var names then one term per cell in
///    canonical N-Triples spelling (empty cell = unbound), matching what
///    the check-gate differ and spreadsheet imports want.
///
/// Serialization is deterministic: the same ResultTable always renders to
/// the same bytes, which is what lets scripts/check.sh gate 6 assert
/// bit-identical cold-cache / warm-cache / direct-execution responses.

/// SPARQL-results-style JSON for a SELECT/ASK result.
[[nodiscard]] std::string ResultTableJson(const sparql::ResultTable& table,
                                          bool is_ask);

/// Tab-separated values for a SELECT result ("true"/"false" for ASK).
[[nodiscard]] std::string ResultTableTsv(const sparql::ResultTable& table,
                                         bool is_ask);

/// JSON for CONSTRUCT/DESCRIBE output: {"triples":[{"s":...},...]} with
/// the same per-term objects as SELECT bindings.
[[nodiscard]] std::string TriplesJson(
    const std::vector<rdf::ParsedTriple>& triples);

/// N-Triples-style TSV for CONSTRUCT/DESCRIBE output: "s\tp\to" per line.
[[nodiscard]] std::string TriplesTsv(
    const std::vector<rdf::ParsedTriple>& triples);

}  // namespace lodviz::serve

#endif  // LODVIZ_SERVE_SERIALIZE_H_
