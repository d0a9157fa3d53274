#ifndef LODVIZ_GRAPH_GENERATORS_H_
#define LODVIZ_GRAPH_GENERATORS_H_

#include "common/random.h"
#include "graph/graph.h"

namespace lodviz::graph {

/// Synthetic graph generators used by tests and benches (the shapes of
/// real WoD graphs: heavy-tailed, clustered, random).

/// Barabási–Albert preferential attachment: power-law degrees like real
/// linked-data graphs. `m` edges per new node.
Graph BarabasiAlbert(NodeId n, int m, uint64_t seed);

/// Watts–Strogatz small world: ring lattice with degree `k` (even),
/// rewired with probability `beta`.
Graph WattsStrogatz(NodeId n, int k, double beta, uint64_t seed);

/// Planted-partition graph: `clusters` groups of `nodes_per_cluster`,
/// intra-cluster edge prob `p_in`, inter `p_out`. Ground truth for
/// clustering tests (assignment = node / nodes_per_cluster).
Graph PlantedPartition(NodeId clusters, NodeId nodes_per_cluster, double p_in,
                       double p_out, uint64_t seed);

}  // namespace lodviz::graph

#endif  // LODVIZ_GRAPH_GENERATORS_H_
