#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "rdf/ntriples.h"
#include "rdf/triple_store.h"
#include "rdf/vocab.h"
#include "stats/profile.h"
#include "workload/scenario.h"
#include "workload/synthetic_lod.h"
#include "test_util.h"

namespace lodviz::workload {
namespace {

TEST(SyntheticLodTest, GeneratesExpectedShape) {
  rdf::TripleStore store;
  SyntheticLodOptions opts;
  opts.num_entities = 500;
  size_t n = GenerateSyntheticLod(opts, &store);
  // n counts every emitted triple; the store keeps each distinct one once
  // (the generator may repeat a knows edge).
  EXPECT_LE(store.size(), n);
  // Each entity gets type + label + age + created + lat + long + category
  // + ~3 knows links.
  EXPECT_GT(n, 500u * 7);
  EXPECT_LT(n, 500u * 13);

  auto profile = test::Unwrap(stats::ProfileDataset(store));
  EXPECT_TRUE(profile.has_spatial);
  EXPECT_EQ(test::FindProperty(profile, lod::kAge)->kind,
            stats::ValueKind::kNumeric);
  EXPECT_EQ(test::FindProperty(profile, lod::kCreated)->kind,
            stats::ValueKind::kTemporal);
  EXPECT_EQ(test::FindProperty(profile, lod::kKnows)->kind,
            stats::ValueKind::kEntity);
  EXPECT_EQ(profile.subject_count, 500u);
}

TEST(SyntheticLodTest, DeterministicAcrossRuns) {
  SyntheticLodOptions opts;
  opts.num_entities = 100;
  opts.seed = 7;
  auto dump = [&opts] {
    rdf::TripleStore store;
    GenerateSyntheticLod(opts, &store);
    std::ostringstream out;
    rdf::WriteNTriples(store, out);
    return out.str();
  };
  const std::string a = dump();
  EXPECT_EQ(a, dump());
  opts.seed = 8;
  EXPECT_NE(a, dump());
}

TEST(SyntheticLodTest, LinkGraphIsHeavyTailed) {
  rdf::TripleStore store;
  SyntheticLodOptions opts;
  opts.num_entities = 2000;
  opts.links_per_entity = 3.0;
  GenerateSyntheticLod(opts, &store);
  graph::Graph g = graph::Graph::FromSource(store);
  EXPECT_GT(static_cast<double>(g.MaxDegree()), 4.0 * g.AverageDegree());
}

TEST(SyntheticLodTest, CategoriesAreZipfSkewed) {
  rdf::TripleStore store;
  SyntheticLodOptions opts;
  opts.num_entities = 3000;
  opts.category_zipf_alpha = 1.1;
  GenerateSyntheticLod(opts, &store);
  rdf::TermId cat = store.dict().Lookup(rdf::Term::Iri(lod::kCategory));
  ASSERT_NE(cat, rdf::kInvalidTermId);
  std::unordered_map<rdf::TermId, uint64_t> counts;
  store.Scan({rdf::kInvalidTermId, cat, rdf::kInvalidTermId},
             [&](const rdf::Triple& t) {
               ++counts[t.o];
               return true;
             });
  std::vector<uint64_t> sorted;
  for (const auto& [v, c] : counts) sorted.push_back(c);
  std::sort(sorted.rbegin(), sorted.rend());
  ASSERT_GE(sorted.size(), 3u);
  EXPECT_GT(sorted[0], 3 * sorted.back());
}

TEST(SyntheticLodTest, TogglesDisableProperties) {
  rdf::TripleStore store;
  SyntheticLodOptions opts;
  opts.num_entities = 50;
  opts.with_geo = false;
  opts.with_dates = false;
  GenerateSyntheticLod(opts, &store);
  EXPECT_EQ(store.dict().Lookup(rdf::Term::Iri(rdf::vocab::kGeoLat)),
            rdf::kInvalidTermId);
  EXPECT_EQ(store.dict().Lookup(rdf::Term::Iri(lod::kCreated)),
            rdf::kInvalidTermId);
}

TEST(ScenarioTest, RangeScenarioStaysInDomainAndZoomsIn) {
  auto queries = ExplorationRangeScenario(0.0, 1000.0, 200, 3);
  ASSERT_EQ(queries.size(), 200u);
  double first_width_sum = 0, last_width_sum = 0;
  for (size_t i = 0; i < 20; ++i) {
    first_width_sum += queries[i].hi - queries[i].lo;
    last_width_sum += queries[180 + i].hi - queries[180 + i].lo;
  }
  for (const auto& q : queries) {
    EXPECT_GE(q.lo, 0.0);
    EXPECT_LE(q.hi, 1000.0);
    EXPECT_LT(q.lo, q.hi);
  }
  // Sessions trend toward narrower (zoomed-in) queries.
  EXPECT_LT(last_width_sum, first_width_sum);
}

TEST(ScenarioTest, TileScenarioIsValidAndHasLocality) {
  auto requests = PanZoomTileScenario(8, 500, 5);
  ASSERT_EQ(requests.size(), 500u);
  size_t adjacent = 0;
  for (size_t i = 1; i < requests.size(); ++i) {
    const auto& a = requests[i - 1];
    const auto& b = requests[i];
    uint32_t n = 1u << b.zoom;
    EXPECT_LT(b.x, n);
    EXPECT_LT(b.y, n);
    if (a.zoom == b.zoom) {
      int dx = std::abs(static_cast<int>(a.x) - static_cast<int>(b.x));
      int dy = std::abs(static_cast<int>(a.y) - static_cast<int>(b.y));
      if (dx <= 1 && dy <= 1) ++adjacent;
    }
  }
  // Most moves are single-tile pans (locality for the prefetcher).
  EXPECT_GT(adjacent, requests.size() / 2);
}

TEST(ScenarioTest, RandomWalkSeriesShape) {
  auto series = RandomWalkSeries(1000, 9);
  ASSERT_EQ(series.size(), 1000u);
  for (size_t i = 0; i < series.size(); ++i) {
    EXPECT_DOUBLE_EQ(series[i].t, static_cast<double>(i));
  }
  // A random walk wanders: end differs from start (w.h.p.).
  EXPECT_NE(series.front().v, series.back().v);
}

}  // namespace
}  // namespace lodviz::workload
