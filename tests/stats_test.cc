#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "common/random.h"
#include "rdf/triple_store.h"
#include "rdf/vocab.h"
#include "stats/histogram.h"
#include "stats/moments.h"
#include "stats/profile.h"
#include "stats/sampler.h"
#include "stats/sketch.h"
#include "test_util.h"

namespace lodviz::stats {
namespace {

TEST(MomentsTest, BasicStatistics) {
  RunningMoments m;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) m.Add(v);
  EXPECT_EQ(m.count(), 8u);
  EXPECT_DOUBLE_EQ(m.mean(), 5.0);
  EXPECT_DOUBLE_EQ(m.variance(), 4.0);
  EXPECT_DOUBLE_EQ(m.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(m.min(), 2.0);
  EXPECT_DOUBLE_EQ(m.max(), 9.0);
  EXPECT_DOUBLE_EQ(m.sum(), 40.0);
}

TEST(MomentsTest, EmptyIsSafe) {
  RunningMoments m;
  EXPECT_EQ(m.count(), 0u);
  EXPECT_DOUBLE_EQ(m.mean(), 0.0);
  EXPECT_TRUE(std::isnan(m.min()));
}

/// Merge must equal bulk accumulation — the exactness property that makes
/// hierarchical statistics roll-up correct.
class MomentsMerge : public ::testing::TestWithParam<int> {};

TEST_P(MomentsMerge, MergeEqualsBulk) {
  Rng rng(GetParam());
  RunningMoments bulk, left, right;
  for (int i = 0; i < 1000; ++i) {
    double v = rng.Normal(10.0, 3.0);
    bulk.Add(v);
    (i % 3 == 0 ? left : right).Add(v);
  }
  left.Merge(right);
  EXPECT_EQ(left.count(), bulk.count());
  EXPECT_NEAR(left.mean(), bulk.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), bulk.variance(), 1e-6);
  EXPECT_DOUBLE_EQ(left.min(), bulk.min());
  EXPECT_DOUBLE_EQ(left.max(), bulk.max());
}

INSTANTIATE_TEST_SUITE_P(Seeds, MomentsMerge, ::testing::Range(1, 8));

TEST(MomentsTest, MergeWithEmpty) {
  RunningMoments a, b;
  a.Add(1.0);
  a.Add(3.0);
  RunningMoments a_copy = a;
  a.Merge(b);  // no-op
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), a_copy.mean());
  b.Merge(a);  // adopt
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(CorrelationTest, PerfectLinear) {
  Correlation c;
  for (int i = 0; i < 100; ++i) c.Add(i, 2.0 * i + 1.0);
  EXPECT_NEAR(c.Pearson(), 1.0, 1e-12);
  Correlation neg;
  for (int i = 0; i < 100; ++i) neg.Add(i, -3.0 * i);
  EXPECT_NEAR(neg.Pearson(), -1.0, 1e-12);
}

TEST(CorrelationTest, IndependentIsNearZero) {
  Rng rng(5);
  Correlation c;
  for (int i = 0; i < 20000; ++i) c.Add(rng.UniformDouble(), rng.UniformDouble());
  EXPECT_NEAR(c.Pearson(), 0.0, 0.03);
}

TEST(HistogramTest, EquiWidthCountsAreExact) {
  std::vector<double> values;
  for (int i = 0; i < 100; ++i) values.push_back(i);  // 0..99
  auto h = Histogram::Build(values, 10, BinningKind::kEquiWidth);
  ASSERT_TRUE(h.ok());
  ASSERT_EQ(h->bins().size(), 10u);
  for (const Bin& b : h->bins()) EXPECT_EQ(b.count, 10u);
  EXPECT_EQ(h->total_count(), 100u);
}

TEST(HistogramTest, EquiDepthBalancesSkew) {
  // Heavily skewed data: equi-depth should still balance counts.
  std::vector<double> values;
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) values.push_back(std::pow(rng.UniformDouble(), 4));
  auto h = Histogram::Build(values, 10, BinningKind::kEquiDepth);
  ASSERT_TRUE(h.ok());
  for (const Bin& b : h->bins()) {
    EXPECT_GT(b.count, 500u);
    EXPECT_LT(b.count, 2000u);
  }
}

TEST(HistogramTest, SingleValueDegenerate) {
  std::vector<double> values(50, 3.25);
  auto h = Histogram::Build(values, 5, BinningKind::kEquiWidth);
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h->total_count(), 50u);
}

TEST(HistogramTest, InvalidArguments) {
  EXPECT_FALSE(Histogram::Build({}, 4, BinningKind::kEquiWidth).ok());
  EXPECT_FALSE(Histogram::Build({1.0}, 0, BinningKind::kEquiWidth).ok());
}

TEST(ReservoirTest, KeepsAllWhenUnderCapacity) {
  ReservoirSampler<int> r(100, 1);
  for (int i = 0; i < 50; ++i) r.Add(i);
  EXPECT_EQ(r.sample().size(), 50u);
  EXPECT_EQ(r.seen(), 50u);
}

TEST(ReservoirTest, UniformInclusionProbability) {
  // Each of 1000 items should land in a 100-slot reservoir ~10% of the time.
  const int kTrials = 400;
  std::vector<int> inclusion(1000, 0);
  for (int trial = 0; trial < kTrials; ++trial) {
    ReservoirSampler<int> r(100, 1000 + trial);
    for (int i = 0; i < 1000; ++i) r.Add(i);
    for (int v : r.sample()) ++inclusion[v];
  }
  // First, middle and last items must all be included at comparable rates.
  for (int idx : {0, 1, 499, 500, 998, 999}) {
    double rate = static_cast<double>(inclusion[idx]) / kTrials;
    EXPECT_NEAR(rate, 0.1, 0.05) << "item " << idx;
  }
}

TEST(ReservoirTest, SampleMeanApproximatesPopulation) {
  Rng rng(3);
  ReservoirSampler<double> r(2000, 4);
  RunningMoments pop;
  for (int i = 0; i < 200000; ++i) {
    double v = rng.Normal(50.0, 10.0);
    r.Add(v);
    pop.Add(v);
  }
  RunningMoments samp;
  for (double v : r.sample()) samp.Add(v);
  EXPECT_NEAR(samp.mean(), pop.mean(), 1.0);
  EXPECT_NEAR(r.ScaleFactor(), 100.0, 0.01);
}

TEST(BernoulliTest, SampleSizeNearExpectation) {
  BernoulliSampler<int> s(0.1, 9);
  for (int i = 0; i < 100000; ++i) s.Add(i);
  EXPECT_NEAR(static_cast<double>(s.sample().size()), 10000.0, 500.0);
}

TEST(StratifiedTest, RareStrataAreRepresented) {
  StratifiedSampler<int, int> s(10, 11);
  // Stratum 0: 100000 items; stratum 1: only 5 items.
  for (int i = 0; i < 100000; ++i) s.Add(0, i);
  for (int i = 0; i < 5; ++i) s.Add(1, i);
  ASSERT_EQ(s.strata().size(), 2u);
  EXPECT_EQ(s.strata().at(0).sample().size(), 10u);
  EXPECT_EQ(s.strata().at(1).sample().size(), 5u);
  EXPECT_EQ(s.Flatten().size(), 15u);
}

class HllAccuracy : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HllAccuracy, WithinFivePercent) {
  uint64_t n = GetParam();
  HyperLogLog hll(14);
  for (uint64_t i = 0; i < n; ++i) hll.Add(i * 2654435761ULL + 17);
  double est = hll.Estimate();
  EXPECT_NEAR(est, static_cast<double>(n), static_cast<double>(n) * 0.05 + 3.0);
}

INSTANTIATE_TEST_SUITE_P(Cardinalities, HllAccuracy,
                         ::testing::Values(10, 100, 1000, 50000, 200000));

// ---- Profiler over a synthetic RDF dataset ----

rdf::TripleStore MakeProfileStore() {
  rdf::TripleStore store;
  using rdf::Term;
  for (int i = 0; i < 200; ++i) {
    std::string s = "http://x/person" + std::to_string(i);
    store.Add(Term::Iri(s), Term::Iri("http://x/age"),
              Term::IntLiteral(20 + i % 50));
    store.Add(Term::Iri(s), Term::Iri("http://x/born"),
              Term::DateTimeLiteral(100000000 + i * 86400LL));
    store.Add(Term::Iri(s), Term::Iri("http://x/team"),
              Term::Literal(i % 2 ? "red" : "blue"));
    store.Add(Term::Iri(s), Term::Iri("http://x/bio"),
              Term::Literal("unique text " + std::to_string(i * 7919)));
    store.Add(Term::Iri(s), Term::Iri("http://x/knows"),
              Term::Iri("http://x/person" + std::to_string((i + 1) % 200)));
    store.Add(Term::Iri(s), Term::Iri(rdf::vocab::kGeoLat),
              Term::DoubleLiteral(40.0 + i * 0.01));
    store.Add(Term::Iri(s), Term::Iri(rdf::vocab::kGeoLong),
              Term::DoubleLiteral(-74.0 + i * 0.01));
  }
  return store;
}

TEST(ProfilerTest, DetectsValueKinds) {
  rdf::TripleStore store = MakeProfileStore();
  auto profile = ProfileDataset(store);
  ASSERT_TRUE(profile.ok()) << profile.status().ToString();
  const DatasetProfile& dp = profile.ValueOrDie();

  auto kind = [&dp](const char* iri) {
    return test::FindProperty(dp, iri)->kind;
  };
  EXPECT_EQ(kind("http://x/age"), ValueKind::kNumeric);
  EXPECT_EQ(kind("http://x/born"), ValueKind::kTemporal);
  EXPECT_EQ(kind("http://x/team"), ValueKind::kCategorical);
  EXPECT_EQ(kind("http://x/bio"), ValueKind::kText);
  EXPECT_EQ(kind("http://x/knows"), ValueKind::kEntity);
}

TEST(ProfilerTest, DatasetLevelSignals) {
  rdf::TripleStore store = MakeProfileStore();
  auto dp = test::Unwrap(ProfileDataset(store));
  EXPECT_TRUE(dp.has_spatial);
  EXPECT_FALSE(dp.has_class_hierarchy);
  EXPECT_EQ(dp.subject_count, 200u);
  EXPECT_EQ(dp.triple_count, 200u * 7);
  EXPECT_GE(dp.entity_link_count, 200u);
}

TEST(ProfilerTest, NumericMomentsAndDistinct) {
  rdf::TripleStore store = MakeProfileStore();
  auto dp = test::Unwrap(ProfileDataset(store));
  const PropertyProfile* age = test::FindProperty(dp, "http://x/age");
  ASSERT_NE(age, nullptr);
  EXPECT_EQ(age->count, 200u);
  EXPECT_NEAR(age->distinct_estimate, 50.0, 5.0);
  EXPECT_GE(age->moments.min(), 20.0);
  EXPECT_LE(age->moments.max(), 69.0);
}

TEST(ProfilerTest, TopValuesForCategorical) {
  rdf::TripleStore store = MakeProfileStore();
  auto dp = test::Unwrap(ProfileDataset(store));
  const PropertyProfile* team = test::FindProperty(dp, "http://x/team");
  ASSERT_NE(team, nullptr);
  ASSERT_EQ(team->top_values.size(), 2u);
  EXPECT_EQ(team->top_values[0].second, 100u);
}

TEST(ProfilerTest, GeoCoordinateFlag) {
  rdf::TripleStore store = MakeProfileStore();
  auto dp = test::Unwrap(ProfileDataset(store));
  EXPECT_TRUE(
      test::FindProperty(dp, rdf::vocab::kGeoLat)->is_geo_coordinate);
  EXPECT_FALSE(test::FindProperty(dp, "http://x/age")->is_geo_coordinate);
}

}  // namespace
}  // namespace lodviz::stats
