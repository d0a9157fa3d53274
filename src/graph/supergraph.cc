#include "graph/supergraph.h"

#include <algorithm>

namespace lodviz::graph {

GraphHierarchy GraphHierarchy::Build(const Graph& base,
                                     const Options& options) {
  GraphHierarchy h;
  AbstractionLevel level0;
  level0.graph = base;
  level0.base_node_counts.assign(base.num_nodes(), 1);
  h.levels_.push_back(std::move(level0));

  for (int l = 0; l < options.max_levels; ++l) {
    const AbstractionLevel& current = h.levels_.back();
    if (current.graph.num_nodes() <= options.target_top_nodes) break;

    Clustering clustering =
        LouvainClustering(current.graph, options.seed + l);
    if (clustering.num_clusters >= current.graph.num_nodes()) {
      // No coarsening possible (e.g. edgeless graph) — force a grid merge
      // so the hierarchy still terminates.
      for (NodeId u = 0; u < current.graph.num_nodes(); ++u) {
        clustering.assignment[u] = u / 2;
      }
      clustering = Densify(std::move(clustering.assignment));
    }

    AbstractionLevel next;
    next.members.resize(clustering.num_clusters);
    next.base_node_counts.assign(clustering.num_clusters, 0);
    for (NodeId u = 0; u < current.graph.num_nodes(); ++u) {
      NodeId c = clustering.assignment[u];
      next.members[c].push_back(u);
      next.base_node_counts[c] += current.base_node_counts[u];
    }
    std::vector<std::pair<NodeId, NodeId>> super_edges;
    for (const auto& [u, v] : current.graph.edges()) {
      NodeId cu = clustering.assignment[u];
      NodeId cv = clustering.assignment[v];
      if (cu != cv) super_edges.emplace_back(cu, cv);
    }
    next.graph = Graph::FromEdges(clustering.num_clusters,
                                  std::move(super_edges));
    bool made_progress =
        next.graph.num_nodes() < current.graph.num_nodes();
    h.levels_.push_back(std::move(next));
    if (!made_progress) break;
  }
  return h;
}

Graph GraphHierarchy::ExpandNode(size_t level_idx, NodeId u) const {
  if (level_idx == 0) {
    return levels_[0].graph.InducedSubgraph({u});
  }
  return levels_[level_idx - 1].graph.InducedSubgraph(
      levels_[level_idx].members[u]);
}

}  // namespace lodviz::graph
