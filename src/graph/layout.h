#ifndef LODVIZ_GRAPH_LAYOUT_H_
#define LODVIZ_GRAPH_LAYOUT_H_

#include <vector>

#include "common/random.h"
#include "geo/geometry.h"
#include "graph/graph.h"

namespace lodviz::graph {

/// Node positions in the unit square, index-aligned with graph nodes.
using Layout = std::vector<geo::Point>;

struct ForceLayoutOptions {
  int iterations = 50;
  uint64_t seed = 1;
  /// Above this node count, repulsion switches from exact O(n^2) to a
  /// grid-bucket approximation (near-field only).
  NodeId exact_repulsion_limit = 2000;
};

/// Fruchterman–Reingold force-directed layout. The classic node-link
/// layout whose memory/time behaviour motivates the survey's Section 4
/// argument that large WoD graphs need abstraction before drawing.
Layout ForceDirectedLayout(const Graph& g, const ForceLayoutOptions& options);

/// Nodes on a circle (O(n), used as a cheap baseline).
Layout CircularLayout(const Graph& g);

/// Bytes needed to lay out `n` nodes with FR (positions + displacement
/// buffers); the memory wall quantified in bench E6.
size_t ForceLayoutMemoryBytes(NodeId n);

}  // namespace lodviz::graph

#endif  // LODVIZ_GRAPH_LAYOUT_H_
