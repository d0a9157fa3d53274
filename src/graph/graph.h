#ifndef LODVIZ_GRAPH_GRAPH_H_
#define LODVIZ_GRAPH_GRAPH_H_

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "rdf/triple_source.h"

namespace lodviz::graph {

using NodeId = uint32_t;

/// An undirected graph in CSR form, optionally tied back to RDF terms.
/// This is the node-link substrate of Section 3.4: RDF entity-to-entity
/// triples become edges; literals are dropped.
class Graph {
 public:
  /// An empty graph (0 nodes).
  Graph() = default;

  /// Builds from the entity-link triples of `source` (object is an IRI or
  /// blank node, subject != object). Parallel edges are deduplicated.
  static Graph FromSource(const rdf::TripleSource& source);

  /// Builds from an explicit edge list over nodes [0, num_nodes).
  /// Self-loops are dropped and parallel edges deduplicated.
  static Graph FromEdges(NodeId num_nodes,
                         std::vector<std::pair<NodeId, NodeId>> edges);

  NodeId num_nodes() const { return static_cast<NodeId>(offsets_.size() - 1); }
  size_t num_edges() const { return edges_.size(); }

  /// Neighbors of `u` (sorted, unique).
  std::span<const NodeId> Neighbors(NodeId u) const {
    return {adj_.data() + offsets_[u], offsets_[u + 1] - offsets_[u]};
  }

  size_t Degree(NodeId u) const { return offsets_[u + 1] - offsets_[u]; }
  double AverageDegree() const {
    return num_nodes() ? 2.0 * static_cast<double>(num_edges()) /
                             static_cast<double>(num_nodes())
                       : 0.0;
  }
  size_t MaxDegree() const;

  /// Unique undirected edges (u < v).
  const std::vector<std::pair<NodeId, NodeId>>& edges() const { return edges_; }

  /// RDF term id of node `u`; kInvalidTermId for synthetic graphs.
  rdf::TermId node_term(NodeId u) const {
    return u < terms_.size() ? terms_[u] : rdf::kInvalidTermId;
  }

  /// Induced subgraph on `nodes`; `old_to_new` (optional) receives the
  /// node-id mapping.
  Graph InducedSubgraph(const std::vector<NodeId>& nodes,
                        std::unordered_map<NodeId, NodeId>* old_to_new =
                            nullptr) const;

 private:
  void BuildCsr(NodeId num_nodes,
                std::vector<std::pair<NodeId, NodeId>> edges);

  std::vector<size_t> offsets_ = {0};  // size num_nodes + 1
  std::vector<NodeId> adj_;
  std::vector<std::pair<NodeId, NodeId>> edges_;  // u < v, unique
  std::vector<rdf::TermId> terms_;
};

}  // namespace lodviz::graph

#endif  // LODVIZ_GRAPH_GRAPH_H_
