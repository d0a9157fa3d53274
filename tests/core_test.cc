#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/archetype.h"
#include "core/capabilities.h"
#include "core/engine.h"
#include "obs/query_log.h"
#include "core/ldvm.h"
#include "core/registry.h"
#include "rdf/vocab.h"
#include "test_util.h"
#include "workload/synthetic_lod.h"

namespace lodviz::core {
namespace {

/// The capability columns, in table order.
constexpr Capability kAllCapabilities[] = {
    Capability::kKeywordSearch,  Capability::kFilter,
    Capability::kSampling,       Capability::kAggregation,
    Capability::kIncremental,    Capability::kDiskBased,
    Capability::kRecommendation, Capability::kPreferences,
    Capability::kStatistics,
};

/// The surveyed system named `name` in either table; nullptr if absent.
const SurveyedSystem* FindSystem(const std::string& name) {
  for (const auto* table : {&Table1Systems(), &Table2Systems()}) {
    for (const SurveyedSystem& s : *table) {
      if (s.name == name) return &s;
    }
  }
  return nullptr;
}

TEST(RegistryTest, TableShapesMatchThePaper) {
  EXPECT_EQ(Table1Systems().size(), 11u);
  EXPECT_EQ(Table2Systems().size(), 21u);
  for (const auto& s : Table1Systems()) {
    EXPECT_EQ(s.table, 1);
    EXPECT_FALSE(s.data_types.empty()) << s.name;
    EXPECT_FALSE(s.vis_types.empty()) << s.name;
  }
  for (const auto& s : Table2Systems()) EXPECT_EQ(s.table, 2);
}

TEST(RegistryTest, SpotCheckRowsAgainstPaper) {
  const SurveyedSystem* synopsviz = FindSystem("SynopsViz");
  ASSERT_NE(synopsviz, nullptr);
  EXPECT_EQ(synopsviz->year, 2014);
  // SynopsViz is the only Table-1 system with Incr. + Disk.
  EXPECT_TRUE(HasCapability(synopsviz->caps, Capability::kIncremental));
  EXPECT_TRUE(HasCapability(synopsviz->caps, Capability::kDiskBased));
  EXPECT_TRUE(HasCapability(synopsviz->caps, Capability::kAggregation));
  EXPECT_FALSE(HasCapability(synopsviz->caps, Capability::kSampling));

  const SurveyedSystem* graphvizdb = FindSystem("graphVizdb");
  ASSERT_NE(graphvizdb, nullptr);
  EXPECT_EQ(graphvizdb->year, 2015);
  EXPECT_TRUE(HasCapability(graphvizdb->caps, Capability::kDiskBased));
  EXPECT_TRUE(HasCapability(graphvizdb->caps, Capability::kKeywordSearch));
  EXPECT_FALSE(HasCapability(graphvizdb->caps, Capability::kAggregation));

  const SurveyedSystem* fenfire = FindSystem("Fenfire");
  ASSERT_NE(fenfire, nullptr);
  EXPECT_EQ(fenfire->caps, kNoCapabilities);

  EXPECT_EQ(FindSystem("NotARealSystem"), nullptr);
}

TEST(RegistryTest, PaperCountsReproduced) {
  // Discussion section: only SynopsViz and VizBoard in Table 1 use
  // approximation (sampling or aggregation).
  int approximating = 0;
  for (const auto& s : Table1Systems()) {
    if (HasCapability(s.caps, Capability::kSampling) ||
        HasCapability(s.caps, Capability::kAggregation)) {
      ++approximating;
    }
  }
  EXPECT_EQ(approximating, 2);
  // ...and only SynopsViz uses disk at runtime.
  int disk = 0;
  for (const auto& s : Table1Systems()) {
    disk += HasCapability(s.caps, Capability::kDiskBased);
  }
  EXPECT_EQ(disk, 1);
}

TEST(CapabilitiesTest, NamesAndComposition) {
  CapabilitySet set = Caps(Capability::kFilter, Capability::kDiskBased);
  EXPECT_TRUE(HasCapability(set, Capability::kFilter));
  EXPECT_FALSE(HasCapability(set, Capability::kSampling));
  EXPECT_EQ(CapabilityName(Capability::kIncremental), "Incr.");
}

class EngineFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    workload::SyntheticLodOptions opts;
    opts.num_entities = 400;
    opts.seed = 99;
    engine_.LoadSynthetic(opts);
  }
  Engine engine_;
};

TEST_F(EngineFixture, LoadAndQuery) {
  EXPECT_GT(engine_.store().size(), 2000u);
  auto result = engine_.Query(
      "SELECT (COUNT(*) AS ?n) WHERE { ?s <http://lod.example/ontology/age> ?a . }");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows()[0][0].term.lexical, "400");
}

TEST_F(EngineFixture, ExplainAnalyzeAndSlowQueryJournal) {
  auto report = engine_.ExplainAnalyzeQuery(
      "SELECT ?s ?a WHERE { ?s <http://lod.example/ontology/age> ?a . }");
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_NE(report->find("explain analyze"), std::string::npos) << *report;
  EXPECT_NE(report->find("act="), std::string::npos) << *report;

  // An engine constructed with a slow-query threshold arms the process
  // journal; every query (threshold 0) is captured and dumped as JSON.
  Engine::Options opts;
  opts.slow_query_us = 0;
  Engine journaling(opts);
  workload::SyntheticLodOptions load;
  load.num_entities = 50;
  load.seed = 7;
  journaling.LoadSynthetic(load);
  ASSERT_TRUE(journaling
                  .Query("SELECT ?s WHERE { ?s "
                         "<http://lod.example/ontology/age> ?a . }")
                  .ok());
  obs::QueryLog::Global().SetThresholdMicros(-1);
  std::string json = journaling.SlowQueryLogJson();
  EXPECT_NE(json.find("\"entries\":[{"), std::string::npos) << json;
  EXPECT_NE(json.find("lod.example/ontology/age"), std::string::npos) << json;
}

TEST_F(EngineFixture, ProfileIsCachedAndInvalidated) {
  auto p1 = engine_.Profile();
  ASSERT_TRUE(p1.ok());
  uint64_t triples_before = p1->triple_count;
  // Loading more data invalidates the cache.
  ASSERT_TRUE(engine_
                  .LoadNTriples("<http://x/a> <http://x/p> <http://x/b> .\n")
                  .ok());
  auto p2 = engine_.Profile();
  ASSERT_TRUE(p2.ok());
  EXPECT_EQ(p2->triple_count, triples_before + 1);
}

TEST_F(EngineFixture, RecommendAndRenderTopChoice) {
  auto recs = engine_.Recommend(3);
  ASSERT_FALSE(recs.empty());
  auto view = engine_.Render(recs.front().spec);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  EXPECT_GT(view->render.elements_drawn, 0u);
  EXPECT_GT(view->pixels_touched, 0u);
}

TEST_F(EngineFixture, RenderEveryKind) {
  using viz::VisKind;
  for (VisKind kind :
       {VisKind::kScatter, VisKind::kMap, VisKind::kTimeline, VisKind::kChart,
        VisKind::kPie, VisKind::kTreemap, VisKind::kGraph}) {
    viz::VisSpec spec;
    spec.kind = kind;
    spec.x_property = kind == VisKind::kTimeline
                          ? "http://lod.example/ontology/created"
                          : "http://lod.example/ontology/age";
    spec.y_property = "http://lod.example/ontology/age";
    if (kind == VisKind::kTreemap) {
      spec.x_property = "http://lod.example/ontology/category";
    }
    auto view = engine_.Render(spec);
    ASSERT_TRUE(view.ok()) << viz::VisKindName(kind) << ": "
                           << view.status().ToString();
    EXPECT_GT(view->render.elements_drawn, 0u) << viz::VisKindName(kind);
  }
}

/// A render carries nothing over from the one before: a scatter after a
/// bar chart reports what a fresh engine's first scatter does.
TEST_F(EngineFixture, RenderHasNoCarryOver) {
  viz::VisSpec scatter;
  scatter.kind = viz::VisKind::kScatter;
  scatter.x_property = "http://lod.example/ontology/age";
  scatter.y_property = rdf::vocab::kGeoLat;
  viz::VisSpec bars;
  bars.kind = viz::VisKind::kChart;
  bars.x_property = "http://lod.example/ontology/age";
  auto same = [](const ViewResult& a, const ViewResult& b) {
    EXPECT_EQ(a.render.elements_drawn, b.render.elements_drawn);
    EXPECT_EQ(a.pixels_touched, b.pixels_touched);
    EXPECT_EQ(a.overplot_factor, b.overplot_factor);
    EXPECT_EQ(a.hidden_fraction, b.hidden_fraction);
  };
  const ViewResult first = test::Unwrap(engine_.Render(scatter));
  const ViewResult chart = test::Unwrap(engine_.Render(bars));
  EXPECT_NE(chart.pixels_touched, first.pixels_touched);
  const ViewResult third = test::Unwrap(engine_.Render(scatter));
  same(third, first);

  Engine fresh;
  workload::SyntheticLodOptions opts;
  opts.num_entities = 400;
  opts.seed = 99;
  fresh.LoadSynthetic(opts);
  same(third, test::Unwrap(fresh.Render(scatter)));
}

TEST_F(EngineFixture, RenderWithSvg) {
  viz::VisSpec spec;
  spec.kind = viz::VisKind::kMap;
  auto view = engine_.Render(spec, /*with_svg=*/true);
  ASSERT_TRUE(view.ok());
  EXPECT_NE(view->svg.find("<svg"), std::string::npos);
}

TEST_F(EngineFixture, RenderErrorsOnMissingData) {
  viz::VisSpec spec;
  spec.kind = viz::VisKind::kScatter;
  spec.x_property = "http://nowhere/p";
  spec.y_property = "http://nowhere/q";
  EXPECT_FALSE(engine_.Render(spec).ok());
}

TEST_F(EngineFixture, ElementBudgetCapsScatter) {
  Engine::Options opts;
  opts.element_budget = 100;
  Engine small(opts);
  workload::SyntheticLodOptions lod;
  lod.num_entities = 500;
  small.LoadSynthetic(lod);
  viz::VisSpec spec;
  spec.kind = viz::VisKind::kScatter;
  spec.x_property = rdf::vocab::kGeoLong;
  spec.y_property = rdf::vocab::kGeoLat;
  auto view = small.Render(spec);
  ASSERT_TRUE(view.ok());
  EXPECT_LE(view->render.elements_drawn, 100u);
}

TEST_F(EngineFixture, MapAggregatesAboveBudget) {
  Engine::Options opts;
  opts.element_budget = 50;  // far below 400 geo points
  Engine small(opts);
  workload::SyntheticLodOptions lod;
  lod.num_entities = 400;
  small.LoadSynthetic(lod);
  viz::VisSpec spec;
  spec.kind = viz::VisKind::kMap;
  auto view = small.Render(spec);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  // Clustered markers: bounded by the 48x48 grid, not by point count.
  EXPECT_LE(view->render.elements_drawn, 48u * 48u);
  EXPECT_EQ(view->render.input_size, 400u);
}

TEST_F(EngineFixture, CollectPairsMatchesMapReference) {
  // Entity 5 gets a second age, so the last one in POS order must win;
  // entity 7's second age is NaN, which must pair like any other number.
  using rdf::Term;
  const Term age = Term::Iri(workload::lod::kAge);
  const Term lat = Term::Iri(rdf::vocab::kGeoLat);
  const std::string entity = workload::lod::kEntityPrefix;
  engine_.store().Add(Term::Iri(entity + "5"), age,
                      Term::DoubleLiteral(1234.5));
  engine_.store().Add(Term::Iri(entity + "7"), age,
                      Term::Literal("NaN", rdf::vocab::kXsdDouble));
  engine_.store().Add(Term::Iri(entity + "7"), lat, Term::DoubleLiteral(1.5));

  // The join as it was: x values kept in a hash map, y scanned in order.
  const rdf::TripleStore& store = engine_.store();
  const rdf::Dictionary& dict = store.dict();
  const rdf::TermId xp = dict.Lookup(age), yp = dict.Lookup(lat);
  std::unordered_map<rdf::TermId, double> x_values;
  store.Scan({rdf::kInvalidTermId, xp, rdf::kInvalidTermId},
             [&](const rdf::Triple& t) {
               Result<double> v = dict.NumberValue(t.o);
               if (v.ok()) x_values[t.s] = *v;
               return true;
             });
  std::vector<geo::Point> expected;
  store.Scan({rdf::kInvalidTermId, yp, rdf::kInvalidTermId},
             [&](const rdf::Triple& t) {
               auto it = x_values.find(t.s);
               Result<double> v = dict.NumberValue(t.o);
               if (it != x_values.end() && v.ok()) {
                 expected.push_back({it->second, *v});
               }
               return true;
             });

  const std::vector<geo::Point> pairs =
      engine_.CollectPairs(workload::lod::kAge, rdf::vocab::kGeoLat);
  ASSERT_EQ(pairs.size(), expected.size());
  size_t nan_pairs = 0;
  for (size_t i = 0; i < pairs.size(); ++i) {
    // Bit patterns, so a NaN compares equal to itself.
    EXPECT_EQ(std::bit_cast<uint64_t>(pairs[i].x),
              std::bit_cast<uint64_t>(expected[i].x)) << i;
    EXPECT_EQ(std::bit_cast<uint64_t>(pairs[i].y),
              std::bit_cast<uint64_t>(expected[i].y)) << i;
    nan_pairs += std::isnan(pairs[i].x);
  }
  EXPECT_EQ(nan_pairs, 2u);  // entity 7's two lat values
  EXPECT_EQ(x_values.at(dict.Lookup(Term::Iri(entity + "5"))), 1234.5);
}

TEST_F(EngineFixture, HierarchyGraphSearchFacets) {
  hier::HETree::Options hopts;
  auto tree = engine_.BuildHierarchy("http://lod.example/ontology/age", hopts);
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->node(tree->root()).stats.count, 400u);

  graph::Graph g = engine_.BuildGraph();
  EXPECT_GT(g.num_edges(), 100u);

  auto hits = engine_.Search("ancient");
  EXPECT_FALSE(hits.empty());

  auto browser = engine_.MakeBrowser();
  EXPECT_GT(browser.num_matching(), 0u);

  // Session recorded all those operations.
  EXPECT_GE(engine_.session().size(), 2u);
}

TEST_F(EngineFixture, LdvmDefaultPipelineRuns) {
  LdvmPipeline pipeline(&engine_);
  auto view = pipeline.Run();
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  EXPECT_GT(view->render.elements_drawn, 0u);
  // The default visual stage picks the recommender's top choice (map for
  // this spatial dataset).
  EXPECT_EQ(pipeline.last_spec().kind, viz::VisKind::kMap);
}

TEST_F(EngineFixture, ArchetypeProbesRespectFlags) {
  // Fenfire: no capabilities — every probe must refuse.
  ArchetypeAdapter fenfire(*FindSystem("Fenfire"), &engine_);
  for (Capability cap : kAllCapabilities) {
    auto r = fenfire.Probe(cap);
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kUnimplemented);
  }

  // SynopsViz archetype: aggregation/incremental/disk/recommendation/
  // preferences/statistics all actually execute.
  ArchetypeAdapter synopsviz(*FindSystem("SynopsViz"), &engine_);
  for (Capability cap :
       {Capability::kAggregation, Capability::kIncremental,
        Capability::kDiskBased, Capability::kRecommendation,
        Capability::kStatistics}) {
    auto r = synopsviz.Probe(cap);
    ASSERT_TRUE(r.ok()) << CapabilityName(cap) << ": "
                        << r.status().ToString();
    EXPECT_TRUE(r->executed);
    EXPECT_GT(r->evidence, 0u);
  }
  // ...but sampling is refused (blank in the paper's table).
  EXPECT_EQ(synopsviz.Probe(Capability::kSampling).status().code(),
            StatusCode::kUnimplemented);
}

TEST_F(EngineFixture, LodvizRowExecutesEverything) {
  ArchetypeAdapter self(LodvizSystem(1), &engine_);
  for (Capability cap : kAllCapabilities) {
    auto r = self.Probe(cap);
    ASSERT_TRUE(r.ok()) << CapabilityName(cap) << ": "
                        << r.status().ToString();
    EXPECT_TRUE(r->executed) << CapabilityName(cap);
  }
}

TEST_F(EngineFixture, LoadAfterQueryIsVisibleToNextQuery) {
  const char* q =
      "SELECT ?s ?a WHERE { ?s <http://lod.example/ontology/age> ?a . "
      "FILTER(?a > 80) } ORDER BY ?s";
  auto before = engine_.Query(q);
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  auto plan_before = engine_.ExplainQuery(q);
  ASSERT_TRUE(plan_before.ok()) << plan_before.status().ToString();
  EXPECT_NE(plan_before->find("est_rows=400."), std::string::npos)
      << *plan_before;

  ASSERT_TRUE(engine_
                  .LoadNTriples("<http://x/new> "
                                "<http://lod.example/ontology/age> "
                                "\"99\"^^<http://www.w3.org/2001/"
                                "XMLSchema#integer> .\n")
                  .ok());
  auto after = engine_.Query(q);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after->num_rows(), before->num_rows() + 1);
  // The estimate comes from the store's statistics as they are now.
  auto plan_after = engine_.ExplainQuery(q);
  ASSERT_TRUE(plan_after.ok()) << plan_after.status().ToString();
  EXPECT_NE(plan_after->find("est_rows=401."), std::string::npos)
      << *plan_after;
}

}  // namespace
}  // namespace lodviz::core
