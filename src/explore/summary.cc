#include "explore/summary.h"

#include <algorithm>
#include <map>
#include <sstream>
#include <unordered_map>

#include "rdf/vocab.h"

namespace lodviz::explore {

SchemaSummary BuildSchemaSummary(const rdf::TripleSource& source) {
  const rdf::Dictionary& dict = source.dict();
  SchemaSummary summary;
  summary.total_triples = source.size();

  rdf::TermId type_pred = dict.Lookup(rdf::Term::Iri(rdf::vocab::kRdfType));

  // Subject -> class (first type wins; kInvalid = untyped).
  std::unordered_map<rdf::TermId, rdf::TermId> subject_class;
  if (type_pred != rdf::kInvalidTermId) {
    source.Scan({rdf::kInvalidTermId, type_pred, rdf::kInvalidTermId},
                [&](const rdf::Triple& t) {
                  subject_class.emplace(t.s, t.o);
                  return true;
                });
  }

  // Class index (created on demand; index 0+ in insertion order).
  std::unordered_map<rdf::TermId, size_t> class_index;
  auto class_of = [&](rdf::TermId subject) {
    rdf::TermId cls = rdf::kInvalidTermId;
    auto it = subject_class.find(subject);
    if (it != subject_class.end()) cls = it->second;
    auto [idx_it, inserted] = class_index.emplace(cls, summary.classes.size());
    if (inserted) {
      SchemaSummary::ClassNode node;
      node.cls = cls;
      node.label = cls == rdf::kInvalidTermId ? "(untyped)"
                                              : dict.term(cls).lexical;
      summary.classes.push_back(std::move(node));
    }
    return idx_it->second;
  };

  // Count instances per class.
  for (rdf::TermId subject : source.DistinctSubjects()) {
    ++summary.classes[class_of(subject)].instances;
    ++summary.total_entities;
  }

  // Aggregate edges and datatype properties.
  std::map<std::tuple<size_t, size_t, rdf::TermId>, uint64_t> edge_counts;
  std::map<std::pair<size_t, rdf::TermId>, uint64_t> prop_counts;
  source.Scan(rdf::TriplePattern(), [&](const rdf::Triple& t) {
    if (t.p == type_pred) return true;
    size_t from = class_of(t.s);
    const rdf::Term& obj = dict.term(t.o);
    if (obj.is_iri() || obj.is_blank()) {
      size_t to = class_of(t.o);
      ++edge_counts[{from, to, t.p}];
    } else {
      ++prop_counts[{from, t.p}];
    }
    return true;
  });

  for (const auto& [key, count] : edge_counts) {
    SchemaSummary::SchemaEdge edge;
    edge.from = std::get<0>(key);
    edge.to = std::get<1>(key);
    edge.predicate = std::get<2>(key);
    edge.predicate_label = dict.term(edge.predicate).lexical;
    edge.count = count;
    summary.edges.push_back(std::move(edge));
  }
  for (const auto& [key, count] : prop_counts) {
    SchemaSummary::DatatypeProperty prop;
    prop.cls = key.first;
    prop.predicate = key.second;
    prop.predicate_label = dict.term(key.second).lexical;
    prop.count = count;
    summary.datatype_properties.push_back(std::move(prop));
  }

  std::sort(summary.classes.begin(), summary.classes.end(),
            [](const auto& a, const auto& b) {
              return a.instances > b.instances;
            });
  // Re-point edge/property class indexes after the sort.
  std::vector<size_t> remap(summary.classes.size());
  {
    // Build old-index -> new-index map via class term id.
    std::unordered_map<rdf::TermId, size_t> new_index;
    for (size_t i = 0; i < summary.classes.size(); ++i) {
      new_index[summary.classes[i].cls] = i;
    }
    std::vector<size_t> old_to_new(summary.classes.size());
    for (const auto& [cls, old_idx] : class_index) {
      old_to_new[old_idx] = new_index[cls];
    }
    remap = std::move(old_to_new);
  }
  for (auto& e : summary.edges) {
    e.from = remap[e.from];
    e.to = remap[e.to];
  }
  for (auto& p : summary.datatype_properties) p.cls = remap[p.cls];

  std::sort(summary.edges.begin(), summary.edges.end(),
            [](const auto& a, const auto& b) { return a.count > b.count; });
  std::sort(summary.datatype_properties.begin(),
            summary.datatype_properties.end(),
            [](const auto& a, const auto& b) { return a.count > b.count; });
  return summary;
}

std::string SchemaSummary::ToString(size_t max_rows) const {
  std::ostringstream oss;
  oss << "Schema summary: " << total_entities << " entities, "
      << total_triples << " triples, " << classes.size() << " classes\n";
  oss << "Classes:\n";
  size_t shown = 0;
  for (const ClassNode& c : classes) {
    if (shown++ >= max_rows) break;
    oss << "  " << c.label << " (" << c.instances << ")\n";
  }
  oss << "Links between classes:\n";
  shown = 0;
  for (const SchemaEdge& e : edges) {
    if (shown++ >= max_rows) break;
    oss << "  " << classes[e.from].label << " --" << e.predicate_label
        << "--> " << classes[e.to].label << " (" << e.count << ")\n";
  }
  oss << "Datatype properties:\n";
  shown = 0;
  for (const DatatypeProperty& p : datatype_properties) {
    if (shown++ >= max_rows) break;
    oss << "  " << classes[p.cls].label << " . " << p.predicate_label << " ("
        << p.count << ")\n";
  }
  return oss.str();
}

}  // namespace lodviz::explore
