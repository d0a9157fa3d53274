#ifndef LODVIZ_STATS_PROFILE_H_
#define LODVIZ_STATS_PROFILE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "rdf/triple_source.h"
#include "stats/histogram.h"
#include "stats/moments.h"

namespace lodviz::stats {

/// The value kind of an RDF property, inferred from its objects. This is
/// the "Data Types" dimension of the survey's Table 1 (N / T / S / H / G)
/// at the property granularity.
enum class ValueKind {
  kNumeric,      ///< xsd numeric literals (Table 1 "N")
  kTemporal,     ///< xsd:dateTime / xsd:date (Table 1 "T")
  kCategorical,  ///< low-cardinality strings or IRIs
  kText,         ///< high-cardinality free text
  kEntity,       ///< IRIs linking to other resources (graph edges, "G")
};

/// Statistical profile of one predicate.
struct PropertyProfile {
  rdf::TermId predicate = rdf::kInvalidTermId;
  std::string predicate_iri;
  ValueKind kind = ValueKind::kText;
  uint64_t count = 0;              ///< triples with this predicate
  double distinct_estimate = 0.0;  ///< HLL estimate of distinct objects
  RunningMoments moments;          ///< numeric/temporal values only
  /// Top object values by frequency (categorical kinds), value -> count.
  std::vector<std::pair<std::string, uint64_t>> top_values;
  /// True if this predicate is a WGS84 latitude/longitude coordinate.
  bool is_geo_coordinate = false;
};

/// Whole-dataset profile: per-property statistics plus dataset-level
/// signals (spatial pairs, class hierarchy presence) used by the
/// visualization recommender.
struct DatasetProfile {
  uint64_t triple_count = 0;
  uint64_t subject_count = 0;
  std::vector<PropertyProfile> properties;
  bool has_spatial = false;       ///< both geo:lat and geo:long observed
  bool has_class_hierarchy = false;  ///< rdfs:subClassOf edges present
  uint64_t entity_link_count = 0;    ///< triples whose object is an IRI
};

/// Scans `source` and produces a DatasetProfile. Cost is one pass per
/// predicate; each predicate's objects are reservoir-sampled down to
/// 10,000 (fixed seed, so a profile is a function of the data).
Result<DatasetProfile> ProfileDataset(const rdf::TripleSource& source);

/// Profiles a single predicate.
Result<PropertyProfile> ProfileProperty(const rdf::TripleSource& source,
                                        rdf::TermId predicate);

}  // namespace lodviz::stats

#endif  // LODVIZ_STATS_PROFILE_H_
