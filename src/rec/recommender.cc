#include "rec/recommender.h"

#include <algorithm>

#include "rdf/vocab.h"

namespace lodviz::rec {

using stats::PropertyProfile;
using stats::ValueKind;
using viz::VisKind;
using viz::VisSpec;

void Recommender::SetPreference(VisKind kind, double multiplier) {
  preferences_[static_cast<uint8_t>(kind)] =
      std::clamp(multiplier, 0.25, 4.0);
}

double Recommender::preference(VisKind kind) const {
  auto it = preferences_.find(static_cast<uint8_t>(kind));
  return it == preferences_.end() ? 1.0 : it->second;
}

std::vector<Recommendation> Recommender::Recommend(
    const stats::DatasetProfile& profile, size_t top_k) const {
  std::vector<Recommendation> candidates;
  auto add = [&](VisKind kind, double score, std::string reason,
                 VisSpec spec) {
    spec.kind = kind;
    Recommendation rec;
    rec.spec = std::move(spec);
    rec.score = score * preference(kind);
    rec.reason = std::move(reason);
    candidates.push_back(std::move(rec));
  };

  // Collect properties per kind (skipping geo coordinates: they feed maps).
  std::vector<const PropertyProfile*> numeric, temporal, categorical;
  for (const PropertyProfile& p : profile.properties) {
    if (p.is_geo_coordinate) continue;
    switch (p.kind) {
      case ValueKind::kNumeric:
        numeric.push_back(&p);
        break;
      case ValueKind::kTemporal:
        temporal.push_back(&p);
        break;
      case ValueKind::kCategorical:
        categorical.push_back(&p);
        break;
      default:
        break;
    }
  }

  // Spatial: a map dominates when coordinates exist.
  if (profile.has_spatial) {
    VisSpec spec;
    spec.x_property = rdf::vocab::kGeoLong;
    spec.y_property = rdf::vocab::kGeoLat;
    spec.title = "Geographic distribution";
    add(VisKind::kMap, 0.95, "dataset has wgs84 lat/long coordinates", spec);
  }

  // Numeric single property: histogram bar chart.
  for (const PropertyProfile* p : numeric) {
    VisSpec spec;
    spec.x_property = p->predicate_iri;
    spec.title = "Distribution of " + p->predicate_iri;
    add(VisKind::kChart, 0.8,
        "numeric property '" + p->predicate_iri + "' suits a histogram",
        spec);
  }

  // Two numeric properties: scatter (correlation discovery, SemLens-style).
  if (numeric.size() >= 2) {
    VisSpec spec;
    spec.x_property = numeric[0]->predicate_iri;
    spec.y_property = numeric[1]->predicate_iri;
    spec.title = spec.x_property + " vs " + spec.y_property;
    add(VisKind::kScatter, 0.85, "two numeric properties suggest a scatter plot",
        spec);
  }
  if (numeric.size() >= 3) {
    VisSpec spec;
    spec.x_property = numeric[0]->predicate_iri;
    spec.y_property = numeric[1]->predicate_iri;
    spec.group_property = numeric[2]->predicate_iri;
    spec.title = "Bubble: 3 numeric dimensions";
    add(VisKind::kBubbleChart, 0.7, "three numeric properties fit a bubble chart",
        spec);
    add(VisKind::kParallelCoords, 0.6,
        "3+ numeric properties can be compared with parallel coordinates",
        spec);
  }

  // Temporal: timeline; temporal + numeric: line chart.
  for (const PropertyProfile* p : temporal) {
    VisSpec spec;
    spec.x_property = p->predicate_iri;
    spec.title = "Timeline of " + p->predicate_iri;
    add(VisKind::kTimeline, 0.75,
        "temporal property '" + p->predicate_iri + "' suits a timeline", spec);
  }
  if (!temporal.empty() && !numeric.empty()) {
    VisSpec spec;
    spec.x_property = temporal[0]->predicate_iri;
    spec.y_property = numeric[0]->predicate_iri;
    spec.title = spec.y_property + " over time";
    add(VisKind::kChart, 0.9, "temporal + numeric properties form a time series",
        spec);
  }

  // Categorical: pie for few values, bars otherwise, treemap for many.
  for (const PropertyProfile* p : categorical) {
    VisSpec spec;
    spec.x_property = p->predicate_iri;
    spec.title = "Breakdown by " + p->predicate_iri;
    if (p->distinct_estimate <= 8) {
      add(VisKind::kPie, 0.7,
          "categorical property with few values suits a pie chart", spec);
    } else {
      add(VisKind::kChart, 0.65,
          "categorical property with many values suits bars", spec);
      add(VisKind::kTreemap, 0.6,
          "high-cardinality categorical property suits a treemap", spec);
    }
  }

  // Hierarchy: treemap / tree. Ranked above generic node-link graphs —
  // containment shows a hierarchy better than links do.
  if (profile.has_class_hierarchy) {
    VisSpec spec;
    spec.x_property = rdf::vocab::kRdfsSubClassOf;
    spec.title = "Class hierarchy";
    add(VisKind::kTreemap, 0.9, "rdfs:subClassOf hierarchy fits a treemap",
        spec);
    add(VisKind::kTree, 0.82, "rdfs:subClassOf hierarchy fits a tree", spec);
  }

  // Entity links: node-link graph.
  if (profile.entity_link_count > 0) {
    VisSpec spec;
    spec.title = "Entity link graph";
    double density =
        static_cast<double>(profile.entity_link_count) /
        std::max<double>(1.0, static_cast<double>(profile.subject_count));
    add(VisKind::kGraph, density > 0.5 ? 0.85 : 0.55,
        "entity-to-entity links form a graph", spec);
  }

  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const Recommendation& a, const Recommendation& b) {
                     return a.score > b.score;
                   });
  if (candidates.size() > top_k) candidates.resize(top_k);
  return candidates;
}

}  // namespace lodviz::rec
