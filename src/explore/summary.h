#ifndef LODVIZ_EXPLORE_SUMMARY_H_
#define LODVIZ_EXPLORE_SUMMARY_H_

#include <string>
#include <vector>

#include "rdf/triple_source.h"

namespace lodviz::explore {

/// A schema-level summary of a WoD source (the LODeX "representative
/// visual summary" [19] and the overview LDVizWiz extracts): classes with
/// instance counts, typed predicate edges between classes, and per-class
/// datatype properties — small enough to draw even when the instance
/// graph is not.
struct SchemaSummary {
  struct ClassNode {
    rdf::TermId cls = rdf::kInvalidTermId;  ///< kInvalid = untyped bucket
    std::string label;
    uint64_t instances = 0;
  };
  struct SchemaEdge {
    size_t from = 0;  ///< index into classes
    size_t to = 0;
    rdf::TermId predicate = rdf::kInvalidTermId;
    std::string predicate_label;
    uint64_t count = 0;
  };
  struct DatatypeProperty {
    size_t cls = 0;  ///< index into classes
    rdf::TermId predicate = rdf::kInvalidTermId;
    std::string predicate_label;
    uint64_t count = 0;
  };

  std::vector<ClassNode> classes;    // sorted by instances desc
  std::vector<SchemaEdge> edges;     // sorted by count desc
  std::vector<DatatypeProperty> datatype_properties;  // sorted by count desc
  uint64_t total_triples = 0;
  uint64_t total_entities = 0;

  /// Compact ASCII rendering.
  std::string ToString(size_t max_rows = 15) const;
};

/// One pass over the source: assigns each subject its first rdf:type (or
/// the untyped bucket) and aggregates class/edge/property counts.
SchemaSummary BuildSchemaSummary(const rdf::TripleSource& source);

}  // namespace lodviz::explore

#endif  // LODVIZ_EXPLORE_SUMMARY_H_
