#include "graph/clustering.h"

#include <algorithm>
#include <numeric>
#include <unordered_map>

#include "exec/parallel.h"

namespace lodviz::graph {

Clustering Densify(std::vector<NodeId> assignment) {
  std::unordered_map<NodeId, NodeId> remap;
  for (NodeId& a : assignment) {
    auto [it, inserted] = remap.emplace(a, static_cast<NodeId>(remap.size()));
    a = it->second;
  }
  Clustering out;
  out.assignment = std::move(assignment);
  out.num_clusters = static_cast<NodeId>(remap.size());
  return out;
}

double Modularity(const Graph& g, const Clustering& clustering) {
  double m = static_cast<double>(g.num_edges());
  if (m == 0) return 0.0;
  // Per-chunk histograms merged in chunk order. Every addend is an
  // integer-valued double, so the sums are exact and the result is
  // bit-identical no matter how the work is split.
  auto combine = [](std::vector<double>& acc, std::vector<double>&& rhs) {
    if (acc.empty()) {
      acc = std::move(rhs);
      return;
    }
    for (size_t c = 0; c < rhs.size(); ++c) acc[c] += rhs[c];
  };
  std::vector<double> degree_sum = exec::ParallelReduce<std::vector<double>>(
      0, g.num_nodes(), 16384,
      [&](size_t b, size_t e) {
        std::vector<double> part(clustering.num_clusters, 0.0);
        for (size_t u = b; u < e; ++u) {
          part[clustering.assignment[u]] +=
              static_cast<double>(g.Degree(static_cast<NodeId>(u)));
        }
        return part;
      },
      combine);
  std::vector<double> intra = exec::ParallelReduce<std::vector<double>>(
      0, g.edges().size(), 16384,
      [&](size_t b, size_t e) {
        std::vector<double> part(clustering.num_clusters, 0.0);
        for (size_t i = b; i < e; ++i) {
          const auto& [u, v] = g.edges()[i];
          if (clustering.assignment[u] == clustering.assignment[v]) {
            part[clustering.assignment[u]] += 1.0;
          }
        }
        return part;
      },
      combine);
  if (degree_sum.empty()) degree_sum.assign(clustering.num_clusters, 0.0);
  if (intra.empty()) intra.assign(clustering.num_clusters, 0.0);
  double q = 0.0;
  for (NodeId c = 0; c < clustering.num_clusters; ++c) {
    q += intra[c] / m - (degree_sum[c] / (2.0 * m)) * (degree_sum[c] / (2.0 * m));
  }
  return q;
}

namespace {

/// One Louvain local-moving pass over a weighted graph in adjacency-map
/// form. Returns the (densified) assignment and whether anything moved.
struct WeightedGraph {
  // adjacency[u] = {(v, w)}; total_weight = sum of edge weights (each edge
  // counted once); strength[u] = sum of incident weights.
  std::vector<std::vector<std::pair<NodeId, double>>> adjacency;
  std::vector<double> strength;
  double total_weight = 0.0;

  NodeId size() const { return static_cast<NodeId>(adjacency.size()); }
};

WeightedGraph FromGraph(const Graph& g) {
  WeightedGraph wg;
  wg.adjacency.resize(g.num_nodes());
  wg.strength.assign(g.num_nodes(), 0.0);
  for (const auto& [u, v] : g.edges()) {
    wg.adjacency[u].emplace_back(v, 1.0);
    wg.adjacency[v].emplace_back(u, 1.0);
    wg.strength[u] += 1.0;
    wg.strength[v] += 1.0;
    wg.total_weight += 1.0;
  }
  return wg;
}

bool LocalMoving(const WeightedGraph& wg, std::vector<NodeId>* assignment,
                 Rng* rng, int max_sweeps) {
  NodeId n = wg.size();
  std::vector<double> community_strength(n, 0.0);
  for (NodeId u = 0; u < n; ++u) {
    community_strength[(*assignment)[u]] += wg.strength[u];
  }
  double m2 = 2.0 * wg.total_weight;
  if (m2 == 0) return false;

  std::vector<NodeId> order(n);
  std::iota(order.begin(), order.end(), 0);
  bool any_move = false;
  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    for (NodeId i = n; i > 1; --i) {
      std::swap(order[i - 1], order[rng->Uniform(i)]);
    }
    bool moved = false;
    std::unordered_map<NodeId, double> weight_to;
    for (NodeId u : order) {
      NodeId current = (*assignment)[u];
      weight_to.clear();
      for (const auto& [v, w] : wg.adjacency[u]) {
        if (v != u) weight_to[(*assignment)[v]] += w;
      }
      community_strength[current] -= wg.strength[u];
      NodeId best = current;
      double best_gain = weight_to.count(current)
                             ? weight_to[current] -
                                   community_strength[current] *
                                       wg.strength[u] / m2
                             : -community_strength[current] * wg.strength[u] / m2;
      for (const auto& [c, w] : weight_to) {
        double gain = w - community_strength[c] * wg.strength[u] / m2;
        if (gain > best_gain + 1e-12) {
          best_gain = gain;
          best = c;
        }
      }
      community_strength[best] += wg.strength[u];
      if (best != current) {
        (*assignment)[u] = best;
        moved = true;
        any_move = true;
      }
    }
    if (!moved) break;
  }
  return any_move;
}

WeightedGraph Aggregate(const WeightedGraph& wg,
                        const std::vector<NodeId>& dense_assignment,
                        NodeId num_clusters) {
  WeightedGraph out;
  out.adjacency.resize(num_clusters);
  out.strength.assign(num_clusters, 0.0);
  std::unordered_map<uint64_t, double> edge_weights;
  for (NodeId u = 0; u < wg.size(); ++u) {
    NodeId cu = dense_assignment[u];
    for (const auto& [v, w] : wg.adjacency[u]) {
      if (v < u) continue;  // visit each edge once
      NodeId cv = dense_assignment[v];
      if (cu == cv) continue;  // intra-cluster weight affects only strength
      NodeId a = std::min(cu, cv), b = std::max(cu, cv);
      edge_weights[(static_cast<uint64_t>(a) << 32) | b] += w;
    }
  }
  for (const auto& [key, w] : edge_weights) {
    NodeId a = static_cast<NodeId>(key >> 32);
    NodeId b = static_cast<NodeId>(key & 0xFFFFFFFF);
    out.adjacency[a].emplace_back(b, w);
    out.adjacency[b].emplace_back(a, w);
  }
  // Strengths: preserve total incident weight, including intra-cluster.
  for (NodeId u = 0; u < wg.size(); ++u) {
    out.strength[dense_assignment[u]] += wg.strength[u];
  }
  out.total_weight = wg.total_weight;
  return out;
}

}  // namespace

Clustering LouvainClustering(const Graph& g, uint64_t seed, int max_levels) {
  Rng rng(seed);
  // node -> current top-level community (composed across levels).
  std::vector<NodeId> node_to_community(g.num_nodes());
  std::iota(node_to_community.begin(), node_to_community.end(), 0);

  WeightedGraph wg = FromGraph(g);
  std::vector<NodeId> level_assignment(wg.size());
  std::iota(level_assignment.begin(), level_assignment.end(), 0);

  for (int level = 0; level < max_levels; ++level) {
    bool moved = LocalMoving(wg, &level_assignment, &rng, /*max_sweeps=*/10);
    if (!moved && level > 0) break;
    Clustering dense = Densify(level_assignment);
    // Compose into node-level assignment.
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      node_to_community[u] = dense.assignment[node_to_community[u]];
    }
    if (!moved || dense.num_clusters == wg.size()) break;
    wg = Aggregate(wg, dense.assignment, dense.num_clusters);
    level_assignment.assign(wg.size(), 0);
    std::iota(level_assignment.begin(), level_assignment.end(), 0);
  }
  return Densify(std::move(node_to_community));
}

}  // namespace lodviz::graph
