#include "graph/graph.h"

#include <algorithm>
#include <queue>

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
  auto node_of = [&](rdf::TermId term) {
    auto it = g.term_to_node_.find(term);
    if (it != g.term_to_node_.end()) return it->second;
    NodeId id = static_cast<NodeId>(g.terms_.size());
    g.terms_.push_back(term);
    g.term_to_node_.emplace(term, id);
    return id;
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

bool Graph::NodeForTerm(rdf::TermId term, NodeId* out) const {
  auto it = term_to_node_.find(term);
  if (it == term_to_node_.end()) return false;
  *out = it->second;
  return true;
}

std::vector<uint32_t> Graph::BfsDistances(NodeId source) const {
  std::vector<uint32_t> dist(num_nodes(), UINT32_MAX);
  std::queue<NodeId> frontier;
  dist[source] = 0;
  frontier.push(source);
  while (!frontier.empty()) {
    NodeId u = frontier.front();
    frontier.pop();
    for (NodeId v : Neighbors(u)) {
      if (dist[v] == UINT32_MAX) {
        dist[v] = dist[u] + 1;
        frontier.push(v);
      }
    }
  }
  return dist;
}

std::vector<NodeId> Graph::ConnectedComponents(NodeId* num_components) const {
  std::vector<NodeId> comp(num_nodes(), UINT32_MAX);
  NodeId next = 0;
  std::vector<NodeId> stack;
  for (NodeId s = 0; s < num_nodes(); ++s) {
    if (comp[s] != UINT32_MAX) continue;
    comp[s] = next;
    stack.push_back(s);
    while (!stack.empty()) {
      NodeId u = stack.back();
      stack.pop_back();
      for (NodeId v : Neighbors(u)) {
        if (comp[v] == UINT32_MAX) {
          comp[v] = next;
          stack.push_back(v);
        }
      }
    }
    ++next;
  }
  if (num_components != nullptr) *num_components = next;
  return comp;
}

std::vector<uint32_t> Graph::CoreNumbers() const {
  // Matula–Beck peeling with bucket queues.
  NodeId n = num_nodes();
  std::vector<uint32_t> degree(n), core(n, 0);
  size_t max_degree = 0;
  for (NodeId u = 0; u < n; ++u) {
    degree[u] = static_cast<uint32_t>(Degree(u));
    max_degree = std::max<size_t>(max_degree, degree[u]);
  }
  std::vector<std::vector<NodeId>> buckets(max_degree + 1);
  for (NodeId u = 0; u < n; ++u) buckets[degree[u]].push_back(u);
  std::vector<bool> removed(n, false);
  uint32_t current = 0;
  for (size_t d = 0; d <= max_degree; ++d) {
    auto& bucket = buckets[d];
    while (!bucket.empty()) {
      NodeId u = bucket.back();
      bucket.pop_back();
      if (removed[u] || degree[u] != d) continue;  // stale entry
      removed[u] = true;
      current = std::max(current, static_cast<uint32_t>(d));
      core[u] = current;
      // Neighbors with degree <= d keep their (already final) bucket;
      // those above d drop by one but never below d, so the forward
      // sweep over buckets stays valid.
      for (NodeId v : Neighbors(u)) {
        if (removed[v] || degree[v] <= d) continue;
        --degree[v];
        buckets[degree[v]].push_back(v);
      }
    }
  }
  return core;
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
      if (terms_[old_id] != rdf::kInvalidTermId) {
        sub.term_to_node_.emplace(terms_[old_id], new_id);
      }
    }
  }
  sub.BuildCsr(static_cast<NodeId>(remap.size()), std::move(edges));
  if (old_to_new != nullptr) *old_to_new = std::move(remap);
  return sub;
}

size_t Graph::MemoryUsage() const {
  return offsets_.capacity() * sizeof(size_t) +
         adj_.capacity() * sizeof(NodeId) +
         edges_.capacity() * sizeof(std::pair<NodeId, NodeId>) +
         terms_.capacity() * sizeof(rdf::TermId) +
         term_to_node_.size() * (sizeof(rdf::TermId) + sizeof(NodeId) +
                                 sizeof(void*) * 2);
}

}  // namespace lodviz::graph
