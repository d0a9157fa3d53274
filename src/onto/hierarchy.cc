#include "onto/hierarchy.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <unordered_map>

#include "rdf/vocab.h"

namespace lodviz::onto {

ClassHierarchy ClassHierarchy::Extract(const rdf::TripleSource& source) {
  ClassHierarchy h;
  const rdf::Dictionary& dict = source.dict();
  rdf::TermId type_pred = dict.Lookup(rdf::Term::Iri(rdf::vocab::kRdfType));
  rdf::TermId sub_pred =
      dict.Lookup(rdf::Term::Iri(rdf::vocab::kRdfsSubClassOf));
  rdf::TermId label_pred =
      dict.Lookup(rdf::Term::Iri(rdf::vocab::kRdfsLabel));

  std::unordered_map<rdf::TermId, int32_t> index;
  auto class_of = [&](rdf::TermId cls) {
    auto [it, inserted] =
        index.emplace(cls, static_cast<int32_t>(h.classes_.size()));
    if (inserted) {
      ClassInfo info;
      info.cls = cls;
      info.label = dict.term(cls).lexical;
      h.classes_.push_back(std::move(info));
    }
    return it->second;
  };

  // Classes from rdf:type objects, with direct instance counts.
  if (type_pred != rdf::kInvalidTermId) {
    source.Scan({rdf::kInvalidTermId, type_pred, rdf::kInvalidTermId},
                [&](const rdf::Triple& t) {
                  ++h.classes_[class_of(t.o)].direct_instances;
                  return true;
                });
  }
  // Hierarchy edges from rdfs:subClassOf (child keeps its first parent).
  if (sub_pred != rdf::kInvalidTermId) {
    source.Scan({rdf::kInvalidTermId, sub_pred, rdf::kInvalidTermId},
                [&](const rdf::Triple& t) {
                  if (t.s == t.o) return true;
                  int32_t child = class_of(t.s);
                  int32_t parent = class_of(t.o);
                  if (h.classes_[child].parent == -1) {
                    h.classes_[child].parent = parent;
                  }
                  return true;
                });
  }

  // Break cycles: walk up from each node; any node that reaches itself
  // gets promoted to a root.
  for (size_t i = 0; i < h.classes_.size(); ++i) {
    int32_t slow = static_cast<int32_t>(i);
    int32_t cursor = h.classes_[i].parent;
    size_t steps = 0;
    while (cursor != -1 && steps++ <= h.classes_.size()) {
      if (cursor == slow) {
        h.classes_[i].parent = -1;  // cycle: cut here
        break;
      }
      cursor = h.classes_[cursor].parent;
    }
    if (steps > h.classes_.size()) h.classes_[i].parent = -1;
  }

  // Children lists, roots, depths.
  for (size_t i = 0; i < h.classes_.size(); ++i) {
    int32_t parent = h.classes_[i].parent;
    if (parent == -1) {
      h.roots_.push_back(static_cast<int32_t>(i));
    } else {
      h.classes_[parent].children.push_back(static_cast<int32_t>(i));
    }
  }
  // Depth + subtree instances via DFS from roots.
  std::vector<int32_t> stack(h.roots_.rbegin(), h.roots_.rend());
  std::vector<int32_t> order;  // topological (parents first)
  while (!stack.empty()) {
    int32_t node = stack.back();
    stack.pop_back();
    order.push_back(node);
    for (int32_t c : h.classes_[node].children) {
      h.classes_[c].depth = h.classes_[node].depth + 1;
      stack.push_back(c);
    }
  }
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    ClassInfo& info = h.classes_[*it];
    info.subtree_instances = info.direct_instances;
    for (int32_t c : info.children) {
      info.subtree_instances += h.classes_[c].subtree_instances;
    }
  }

  // Human labels where available.
  if (label_pred != rdf::kInvalidTermId) {
    for (ClassInfo& info : h.classes_) {
      auto labels = source.Match({info.cls, label_pred, rdf::kInvalidTermId});
      if (!labels.empty()) info.label = dict.term(labels.front().o).lexical;
    }
  }
  return h;
}

std::vector<int32_t> ClassHierarchy::KeyConcepts(size_t k) const {
  // KC-Viz-inspired structural importance: coverage (subtree instances),
  // branching (children), and shallowness.
  std::vector<std::pair<double, int32_t>> scored;
  for (size_t i = 0; i < classes_.size(); ++i) {
    const ClassInfo& info = classes_[i];
    double score = std::log1p(static_cast<double>(info.subtree_instances)) +
                   0.5 * static_cast<double>(info.children.size()) -
                   0.3 * static_cast<double>(info.depth);
    scored.emplace_back(score, static_cast<int32_t>(i));
  }
  std::sort(scored.begin(), scored.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  });
  std::vector<int32_t> out;
  for (size_t i = 0; i < std::min(k, scored.size()); ++i) {
    out.push_back(scored[i].second);
  }
  return out;
}

std::string ClassHierarchy::ToString(size_t max_classes) const {
  std::ostringstream oss;
  size_t shown = 0;
  // DFS print.
  std::vector<int32_t> stack(roots_.rbegin(), roots_.rend());
  while (!stack.empty() && shown < max_classes) {
    int32_t node = stack.back();
    stack.pop_back();
    const ClassInfo& info = classes_[node];
    oss << std::string(info.depth * 2, ' ') << info.label << " ("
        << info.direct_instances << " direct, " << info.subtree_instances
        << " total)\n";
    ++shown;
    for (auto it = info.children.rbegin(); it != info.children.rend(); ++it) {
      stack.push_back(*it);
    }
  }
  if (shown == max_classes && classes_.size() > max_classes) {
    oss << "... (" << classes_.size() - max_classes << " more classes)\n";
  }
  return oss.str();
}

}  // namespace lodviz::onto
