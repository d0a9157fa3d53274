#ifndef LODVIZ_ONTO_HIERARCHY_H_
#define LODVIZ_ONTO_HIERARCHY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "rdf/triple_source.h"

namespace lodviz::onto {

/// One class in the extracted hierarchy.
struct ClassInfo {
  rdf::TermId cls = rdf::kInvalidTermId;
  std::string label;               ///< rdfs:label or the IRI
  int32_t parent = -1;             ///< index into classes; -1 = root
  std::vector<int32_t> children;   ///< indexes into classes
  uint64_t direct_instances = 0;   ///< entities typed exactly this class
  uint64_t subtree_instances = 0;  ///< direct + all descendants
  uint32_t depth = 0;
};

/// The class hierarchy of a WoD source (Section 3.5): rdfs:subClassOf
/// edges plus rdf:type instance counts, normalized into a forest (a DAG
/// child keeps its first parent; cycles are broken deterministically).
/// This is the structure every ontology visualizer in Table 2 draws.
class ClassHierarchy {
 public:
  /// Extracts the hierarchy from `source`. Classes are anything appearing
  /// as an rdf:type object or on either side of rdfs:subClassOf.
  static ClassHierarchy Extract(const rdf::TripleSource& source);

  const std::vector<ClassInfo>& classes() const { return classes_; }
  const std::vector<int32_t>& roots() const { return roots_; }
  size_t size() const { return classes_.size(); }

  /// KC-Viz-style key concepts [104]: the k most "important" classes by a
  /// structural score (subtree instances + direct children + shallowness).
  std::vector<int32_t> KeyConcepts(size_t k) const;

  /// Compact indented rendering.
  std::string ToString(size_t max_classes = 50) const;

 private:
  std::vector<ClassInfo> classes_;
  std::vector<int32_t> roots_;
};

}  // namespace lodviz::onto

#endif  // LODVIZ_ONTO_HIERARCHY_H_
