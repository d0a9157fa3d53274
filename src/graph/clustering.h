#ifndef LODVIZ_GRAPH_CLUSTERING_H_
#define LODVIZ_GRAPH_CLUSTERING_H_

#include <vector>

#include "common/random.h"
#include "graph/graph.h"

namespace lodviz::graph {

/// A node -> cluster assignment (dense cluster ids starting at 0).
struct Clustering {
  std::vector<NodeId> assignment;
  NodeId num_clusters = 0;
};

/// Newman modularity of an assignment in [-0.5, 1].
double Modularity(const Graph& g, const Clustering& clustering);

/// Louvain-style greedy modularity optimization (local moving +
/// graph aggregation, repeated until modularity stops improving).
Clustering LouvainClustering(const Graph& g, uint64_t seed,
                             int max_levels = 10);

/// Renumbers an assignment to dense cluster ids.
Clustering Densify(std::vector<NodeId> assignment);

}  // namespace lodviz::graph

#endif  // LODVIZ_GRAPH_CLUSTERING_H_
