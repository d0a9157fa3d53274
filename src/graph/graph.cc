#include "graph/graph.h"

#include <algorithm>

namespace lodviz::graph {

void Graph::BuildCsr(NodeId num_nodes,
                     std::vector<std::pair<NodeId, NodeId>> edges) {
  // Normalize: drop self loops, order endpoints, dedupe.
  std::vector<std::pair<NodeId, NodeId>> clean;
  clean.reserve(edges.size());
  for (auto [u, v] : edges) {
    if (u == v) continue;
    if (u > v) std::swap(u, v);
    clean.emplace_back(u, v);
  }
  std::sort(clean.begin(), clean.end());
  clean.erase(std::unique(clean.begin(), clean.end()), clean.end());
  edges_ = std::move(clean);

  std::vector<size_t> degree(num_nodes, 0);
  for (const auto& [u, v] : edges_) {
    ++degree[u];
    ++degree[v];
  }
  offsets_.assign(static_cast<size_t>(num_nodes) + 1, 0);
  for (NodeId i = 0; i < num_nodes; ++i) offsets_[i + 1] = offsets_[i] + degree[i];
  adj_.resize(offsets_.back());
  std::vector<size_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (const auto& [u, v] : edges_) {
    adj_[cursor[u]++] = v;
    adj_[cursor[v]++] = u;
  }
  for (NodeId i = 0; i < num_nodes; ++i) {
    std::sort(adj_.begin() + offsets_[i], adj_.begin() + offsets_[i + 1]);
  }
}

Graph Graph::FromEdges(NodeId num_nodes,
                       std::vector<std::pair<NodeId, NodeId>> edges) {
  Graph g;
  g.BuildCsr(num_nodes, std::move(edges));
  return g;
}

Graph Graph::FromSource(const rdf::TripleSource& source) {
  Graph g;
  std::vector<std::pair<NodeId, NodeId>> edges;
  std::unordered_map<rdf::TermId, NodeId> term_to_node;
  auto node_of = [&](rdf::TermId term) {
    auto [it, inserted] = term_to_node.try_emplace(
        term, static_cast<NodeId>(g.terms_.size()));
    if (inserted) g.terms_.push_back(term);
    return it->second;
  };
  const rdf::Dictionary& dict = source.dict();
  source.Scan(rdf::TriplePattern(), [&](const rdf::Triple& t) {
    const rdf::Term& obj = dict.term(t.o);
    if (!obj.is_iri() && !obj.is_blank()) return true;
    if (t.s == t.o) return true;
    edges.emplace_back(node_of(t.s), node_of(t.o));
    return true;
  });
  g.BuildCsr(static_cast<NodeId>(g.terms_.size()), std::move(edges));
  return g;
}

size_t Graph::MaxDegree() const {
  size_t best = 0;
  for (NodeId u = 0; u < num_nodes(); ++u) best = std::max(best, Degree(u));
  return best;
}

Graph Graph::InducedSubgraph(
    const std::vector<NodeId>& nodes,
    std::unordered_map<NodeId, NodeId>* old_to_new) const {
  std::unordered_map<NodeId, NodeId> remap;
  remap.reserve(nodes.size());
  for (NodeId u : nodes) {
    if (!remap.count(u)) {
      remap.emplace(u, static_cast<NodeId>(remap.size()));
    }
  }
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (const auto& [u, v] : edges_) {
    auto iu = remap.find(u);
    auto iv = remap.find(v);
    if (iu != remap.end() && iv != remap.end()) {
      edges.emplace_back(iu->second, iv->second);
    }
  }
  Graph sub;
  // Preserve term mapping if present.
  if (!terms_.empty()) {
    sub.terms_.resize(remap.size(), rdf::kInvalidTermId);
    for (const auto& [old_id, new_id] : remap) {
      sub.terms_[new_id] = terms_[old_id];
    }
  }
  sub.BuildCsr(static_cast<NodeId>(remap.size()), std::move(edges));
  if (old_to_new != nullptr) *old_to_new = std::move(remap);
  return sub;
}

}  // namespace lodviz::graph
