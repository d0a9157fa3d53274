#include "stats/profile.h"

#include <algorithm>
#include <unordered_map>

#include "rdf/vocab.h"
#include "stats/sampler.h"
#include "stats/sketch.h"

namespace lodviz::stats {

namespace {

/// Max object values examined per predicate (reservoir-sampled above).
constexpr size_t kSamplePerPredicate = 10000;
/// Distinct-ratio below which string values are categorical not text.
constexpr double kCategoricalDistinctRatio = 0.5;
/// Absolute distinct count below which values are categorical.
constexpr uint64_t kCategoricalMaxDistinct = 64;
/// Number of top values kept for categorical properties.
constexpr size_t kTopK = 10;
constexpr uint64_t kSampleSeed = 42;

}  // namespace

Result<PropertyProfile> ProfileProperty(const rdf::TripleSource& source,
                                        rdf::TermId predicate) {
  const rdf::Dictionary& dict = source.dict();
  if (!dict.Contains(predicate)) {
    return Status::NotFound("predicate id not in dictionary");
  }
  PropertyProfile profile;
  profile.predicate = predicate;
  profile.predicate_iri = dict.term(predicate).lexical;

  ReservoirSampler<rdf::TermId> reservoir(kSamplePerPredicate, kSampleSeed);
  HyperLogLog distinct(12);
  rdf::TriplePattern pat(rdf::kInvalidTermId, predicate, rdf::kInvalidTermId);
  source.Scan(pat, [&](const rdf::Triple& t) {
    ++profile.count;
    reservoir.Add(t.o);
    distinct.Add(t.o);
    return true;
  });
  profile.distinct_estimate = distinct.Estimate();
  if (profile.count == 0) return profile;

  // Classify sampled objects.
  uint64_t numeric = 0, temporal = 0, entity = 0, other = 0;
  std::unordered_map<rdf::TermId, uint64_t> value_counts;
  for (rdf::TermId oid : reservoir.sample()) {
    const rdf::Term& term = dict.term(oid);
    ++value_counts[oid];
    if (term.is_iri() || term.is_blank()) {
      ++entity;
    } else if (term.IsTemporalLiteral()) {
      ++temporal;
    } else if (term.IsNumericLiteral()) {
      ++numeric;
    } else {
      ++other;
    }
  }
  uint64_t sampled = reservoir.sample().size();
  auto majority = [&](uint64_t n) { return n * 2 > sampled; };
  if (majority(entity)) {
    profile.kind = ValueKind::kEntity;
  } else if (majority(temporal)) {
    profile.kind = ValueKind::kTemporal;
  } else if (majority(numeric)) {
    profile.kind = ValueKind::kNumeric;
  } else {
    double ratio = profile.distinct_estimate /
                   std::max<double>(1.0, static_cast<double>(profile.count));
    bool categorical =
        profile.distinct_estimate <=
            static_cast<double>(kCategoricalMaxDistinct) ||
        ratio < kCategoricalDistinctRatio;
    profile.kind = categorical ? ValueKind::kCategorical : ValueKind::kText;
  }

  // Numeric/temporal moments over the sample.
  if (profile.kind == ValueKind::kNumeric ||
      profile.kind == ValueKind::kTemporal) {
    for (rdf::TermId oid : reservoir.sample()) {
      if (profile.kind == ValueKind::kNumeric) {
        Result<double> v = dict.NumberValue(oid);
        if (v.ok()) profile.moments.Add(v.ValueOrDie());
        continue;
      }
      // A temporal profile reads every sampled value as a date, so only
      // a decoded temporal literal skips the parse.
      const rdf::DecodedValue& d = dict.decoded(oid);
      if (d.kind == rdf::DecodedValue::Kind::kTime) {
        profile.moments.Add(static_cast<double>(d.epoch));
        continue;
      }
      Result<int64_t> v = dict.term(oid).AsEpochSeconds();
      if (v.ok()) profile.moments.Add(static_cast<double>(v.ValueOrDie()));
    }
  }

  // Top values (categorical / entity kinds are the interesting cases).
  std::vector<std::pair<rdf::TermId, uint64_t>> sorted(value_counts.begin(),
                                                       value_counts.end());
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  size_t k = std::min(kTopK, sorted.size());
  for (size_t i = 0; i < k; ++i) {
    profile.top_values.emplace_back(dict.term(sorted[i].first).lexical,
                                    sorted[i].second);
  }

  profile.is_geo_coordinate =
      profile.predicate_iri == rdf::vocab::kGeoLat ||
      profile.predicate_iri == rdf::vocab::kGeoLong;
  return profile;
}

Result<DatasetProfile> ProfileDataset(const rdf::TripleSource& source) {
  DatasetProfile out;
  out.subject_count = source.DistinctSubjects().size();
  out.triple_count = source.size();

  bool has_lat = false, has_long = false;
  for (const auto& [pred, count] : source.PredicateCounts()) {
    LODVIZ_ASSIGN_OR_RETURN(PropertyProfile profile,
                            ProfileProperty(source, pred));
    if (profile.predicate_iri == rdf::vocab::kGeoLat) has_lat = true;
    if (profile.predicate_iri == rdf::vocab::kGeoLong) has_long = true;
    if (profile.predicate_iri == rdf::vocab::kRdfsSubClassOf && count > 0) {
      out.has_class_hierarchy = true;
    }
    if (profile.kind == ValueKind::kEntity) {
      out.entity_link_count += profile.count;
    }
    out.properties.push_back(std::move(profile));
  }
  out.has_spatial = has_lat && has_long;
  std::sort(out.properties.begin(), out.properties.end(),
            [](const PropertyProfile& a, const PropertyProfile& b) {
              return a.predicate_iri < b.predicate_iri;
            });
  return out;
}

}  // namespace lodviz::stats
