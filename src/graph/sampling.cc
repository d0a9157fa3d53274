#include "graph/sampling.h"

#include <algorithm>
#include <numeric>
#include <unordered_set>

namespace lodviz::graph {

std::vector<NodeId> ForestFireSample(const Graph& g, size_t target_nodes,
                                     uint64_t seed, double burn_probability) {
  Rng rng(seed);
  NodeId n = g.num_nodes();
  if (n == 0) return {};
  std::unordered_set<NodeId> burned;
  std::vector<NodeId> frontier;
  size_t guard = 100 * target_nodes + 1000;
  while (burned.size() < std::min<size_t>(target_nodes, n) && guard-- > 0) {
    if (frontier.empty()) {
      NodeId ignition = static_cast<NodeId>(rng.Uniform(n));
      if (burned.insert(ignition).second) frontier.push_back(ignition);
      continue;
    }
    NodeId u = frontier.back();
    frontier.pop_back();
    for (NodeId v : g.Neighbors(u)) {
      if (burned.size() >= target_nodes) break;
      if (!burned.count(v) && rng.Bernoulli(burn_probability)) {
        burned.insert(v);
        frontier.push_back(v);
      }
    }
  }
  std::vector<NodeId> out(burned.begin(), burned.end());
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace lodviz::graph
