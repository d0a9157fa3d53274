#ifndef LODVIZ_GRAPH_SUPERGRAPH_H_
#define LODVIZ_GRAPH_SUPERGRAPH_H_

#include <vector>

#include "graph/clustering.h"
#include "graph/graph.h"

namespace lodviz::graph {

/// One abstraction level: a coarsened graph whose nodes are clusters of
/// the level below.
struct AbstractionLevel {
  Graph graph;
  /// For each node of this level: how many base-graph nodes it represents.
  std::vector<uint64_t> base_node_counts;
  /// For each node of this level: its member node ids in the level below.
  std::vector<std::vector<NodeId>> members;
};

/// Hierarchical graph abstraction (ASK-GraphView / GrouseFlocks style
/// [1, 8, 9]): the base graph is recursively clustered into super-graphs
/// until the top level fits a display budget. Exploration then starts at
/// the top and expands super-nodes on demand — the technique Section 4
/// prescribes for graphs too large for direct layout.
class GraphHierarchy {
 public:
  struct Options {
    /// Stop coarsening once a level has at most this many nodes.
    NodeId target_top_nodes = 64;
    /// Safety bound on levels.
    int max_levels = 12;
    uint64_t seed = 7;
  };

  /// Builds the hierarchy bottom-up using Louvain clustering per level.
  static GraphHierarchy Build(const Graph& base, const Options& options);

  /// Level 0 is the base graph; higher indexes are coarser.
  size_t num_levels() const { return levels_.size(); }
  const AbstractionLevel& level(size_t i) const { return levels_[i]; }
  const AbstractionLevel& top() const { return levels_.back(); }

  /// "Expand" a super-node: the induced subgraph (one level down) of its
  /// members — what a UI renders when the user opens a cluster.
  Graph ExpandNode(size_t level_idx, NodeId u) const;

 private:
  std::vector<AbstractionLevel> levels_;
};

}  // namespace lodviz::graph

#endif  // LODVIZ_GRAPH_SUPERGRAPH_H_
