#include <gtest/gtest.h>

#include "rec/recommender.h"
#include "rdf/triple_store.h"
#include "rdf/vocab.h"
#include "stats/profile.h"
#include "workload/synthetic_lod.h"

namespace lodviz::rec {
namespace {

stats::DatasetProfile ProfileOf(const rdf::TripleStore& store) {
  auto p = stats::ProfileDataset(store);
  EXPECT_TRUE(p.ok()) << p.status().ToString();
  return std::move(p).ValueOrDie();
}

rdf::TripleStore SyntheticStore() {
  rdf::TripleStore store;
  workload::SyntheticLodOptions opts;
  opts.num_entities = 300;
  workload::GenerateSyntheticLod(opts, &store);
  return store;
}

TEST(RecommenderTest, MapTopsSpatialDataset) {
  rdf::TripleStore store = SyntheticStore();
  Recommender rec;
  auto recs = rec.Recommend(ProfileOf(store), 5);
  ASSERT_FALSE(recs.empty());
  EXPECT_EQ(recs.front().spec.kind, viz::VisKind::kMap);
  EXPECT_FALSE(recs.front().reason.empty());
  // Scores are sorted descending.
  for (size_t i = 1; i < recs.size(); ++i) {
    EXPECT_LE(recs[i].score, recs[i - 1].score);
  }
}

TEST(RecommenderTest, NumericOnlyDatasetGetsChart) {
  rdf::TripleStore store;
  using rdf::Term;
  for (int i = 0; i < 100; ++i) {
    store.Add(Term::Iri("http://x/e" + std::to_string(i)),
              Term::Iri("http://x/value"), Term::DoubleLiteral(i * 1.5));
  }
  Recommender rec;
  auto recs = rec.Recommend(ProfileOf(store), 3);
  ASSERT_FALSE(recs.empty());
  EXPECT_EQ(recs.front().spec.kind, viz::VisKind::kChart);
  EXPECT_EQ(recs.front().spec.x_property, "http://x/value");
}

TEST(RecommenderTest, TwoNumericsSuggestScatter) {
  rdf::TripleStore store;
  using rdf::Term;
  for (int i = 0; i < 100; ++i) {
    std::string s = "http://x/e" + std::to_string(i);
    store.Add(Term::Iri(s), Term::Iri("http://x/height"),
              Term::DoubleLiteral(i));
    store.Add(Term::Iri(s), Term::Iri("http://x/weight"),
              Term::DoubleLiteral(i * 2));
  }
  Recommender rec;
  auto recs = rec.Recommend(ProfileOf(store), 5);
  bool has_scatter = false;
  for (const auto& r : recs) {
    if (r.spec.kind == viz::VisKind::kScatter) {
      has_scatter = true;
      EXPECT_FALSE(r.spec.x_property.empty());
      EXPECT_FALSE(r.spec.y_property.empty());
    }
  }
  EXPECT_TRUE(has_scatter);
}

TEST(RecommenderTest, HierarchyYieldsTreemap) {
  rdf::TripleStore store;
  using rdf::Term;
  store.Add(Term::Iri("http://x/Dog"), Term::Iri(rdf::vocab::kRdfsSubClassOf),
            Term::Iri("http://x/Animal"));
  store.Add(Term::Iri("http://x/Cat"), Term::Iri(rdf::vocab::kRdfsSubClassOf),
            Term::Iri("http://x/Animal"));
  Recommender rec;
  auto recs = rec.Recommend(ProfileOf(store), 5);
  bool has_treemap = false;
  for (const auto& r : recs) {
    has_treemap |= r.spec.kind == viz::VisKind::kTreemap;
  }
  EXPECT_TRUE(has_treemap);
}

TEST(RecommenderTest, PreferencesReorderRanking) {
  rdf::TripleStore store = SyntheticStore();
  stats::DatasetProfile profile = ProfileOf(store);
  Recommender rec;
  auto before = rec.Recommend(profile, 3);
  ASSERT_GE(before.size(), 2u);
  viz::VisKind top = before.front().spec.kind;

  rec.SetPreference(top, 0.25);
  auto after = rec.Recommend(profile, 3);
  ASSERT_FALSE(after.empty());
  EXPECT_NE(after.front().spec.kind, top);
}

TEST(RecommenderTest, EmptyProfileYieldsNothing) {
  stats::DatasetProfile empty;
  Recommender rec;
  EXPECT_TRUE(rec.Recommend(empty, 5).empty());
}

}  // namespace
}  // namespace lodviz::rec
