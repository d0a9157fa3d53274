#ifndef LODVIZ_WORKLOAD_SYNTHETIC_LOD_H_
#define LODVIZ_WORKLOAD_SYNTHETIC_LOD_H_

#include <cstdint>

#include "rdf/triple_store.h"

namespace lodviz::workload {

/// IRIs of the synthetic LOD ontology (DBpedia-like shapes).
namespace lod {
inline constexpr char kEntityPrefix[] = "http://lod.example/entity/";
inline constexpr char kPerson[] = "http://lod.example/ontology/Person";
inline constexpr char kPlace[] = "http://lod.example/ontology/Place";
inline constexpr char kOrganization[] =
    "http://lod.example/ontology/Organization";
inline constexpr char kAge[] = "http://lod.example/ontology/age";
inline constexpr char kCreated[] = "http://lod.example/ontology/created";
inline constexpr char kCategory[] = "http://lod.example/ontology/category";
inline constexpr char kKnows[] = "http://lod.example/ontology/knows";
inline constexpr char kCategoryPrefix[] = "http://lod.example/category/";
}  // namespace lod

/// Parameters of the synthetic Linked Data generator. The generated
/// dataset has the statistical shapes of real WoD sources: Zipfian
/// category popularity, preferential-attachment entity links, labels for
/// keyword search, and numeric/temporal/spatial property values — so it
/// exercises exactly the code paths live endpoints would.
struct SyntheticLodOptions {
  uint64_t num_entities = 1000;
  uint64_t seed = 42;
  /// Mean entity-to-entity links per entity (preferential attachment).
  double links_per_entity = 3.0;
  /// Distinct category values, Zipf-distributed.
  int num_categories = 12;
  double category_zipf_alpha = 1.0;
  bool with_types = true;    ///< rdf:type Person/Place/Organization
  bool with_labels = true;   ///< rdfs:label "<Kind> N alpha..."
  bool with_numeric = true;  ///< age ~ Normal(40, 12), clamped to [0, 100]
  bool with_dates = true;    ///< created in [2000-01-01, 2016-01-01)
  bool with_geo = true;      ///< lat/long clustered around a few hubs
  bool with_category = true;
};

/// Generates the dataset directly into `store`. Returns triple count.
size_t GenerateSyntheticLod(const SyntheticLodOptions& options,
                            rdf::TripleStore* store);

}  // namespace lodviz::workload

#endif  // LODVIZ_WORKLOAD_SYNTHETIC_LOD_H_
