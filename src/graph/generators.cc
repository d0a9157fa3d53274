#include "graph/generators.h"

#include <algorithm>
#include <cmath>
#include <vector>

namespace lodviz::graph {

Graph BarabasiAlbert(NodeId n, int m, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<NodeId, NodeId>> edges;
  // Endpoint pool: each appearance is proportional to degree.
  std::vector<NodeId> pool;
  NodeId start = static_cast<NodeId>(std::max(m + 1, 2));
  // Initial clique-ish seed: a path over the first `start` nodes.
  for (NodeId i = 1; i < start && i < n; ++i) {
    edges.emplace_back(i - 1, i);
    pool.push_back(i - 1);
    pool.push_back(i);
  }
  for (NodeId u = start; u < n; ++u) {
    for (int e = 0; e < m; ++e) {
      NodeId target = pool.empty()
                          ? static_cast<NodeId>(rng.Uniform(u))
                          : pool[rng.Uniform(pool.size())];
      if (target == u) continue;
      edges.emplace_back(u, target);
      pool.push_back(u);
      pool.push_back(target);
    }
  }
  return Graph::FromEdges(n, std::move(edges));
}

Graph WattsStrogatz(NodeId n, int k, double beta, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId u = 0; u < n; ++u) {
    for (int j = 1; j <= k / 2; ++j) {
      NodeId v = static_cast<NodeId>((u + j) % n);
      if (rng.Bernoulli(beta)) {
        v = static_cast<NodeId>(rng.Uniform(n));
        if (v == u) v = static_cast<NodeId>((u + 1) % n);
      }
      edges.emplace_back(u, v);
    }
  }
  return Graph::FromEdges(n, std::move(edges));
}

Graph PlantedPartition(NodeId clusters, NodeId nodes_per_cluster, double p_in,
                       double p_out, uint64_t seed) {
  Rng rng(seed);
  NodeId n = clusters * nodes_per_cluster;
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) {
      bool same = (u / nodes_per_cluster) == (v / nodes_per_cluster);
      if (rng.Bernoulli(same ? p_in : p_out)) edges.emplace_back(u, v);
    }
  }
  return Graph::FromEdges(n, std::move(edges));
}

}  // namespace lodviz::graph
