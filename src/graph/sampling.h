#ifndef LODVIZ_GRAPH_SAMPLING_H_
#define LODVIZ_GRAPH_SAMPLING_H_

#include <vector>

#include "common/random.h"
#include "graph/graph.h"

namespace lodviz::graph {

/// Graph sampling for visual reduction (Section 3.4, e.g. the Oracle
/// sampling approach [127]). Returns a node subset; use
/// Graph::InducedSubgraph to materialize the sampled view.
///
/// Forest fire: recursive probabilistic frontier burning (Leskovec),
/// preserving community structure better than uniform sampling.
std::vector<NodeId> ForestFireSample(const Graph& g, size_t target_nodes,
                                     uint64_t seed,
                                     double burn_probability = 0.7);

}  // namespace lodviz::graph

#endif  // LODVIZ_GRAPH_SAMPLING_H_
