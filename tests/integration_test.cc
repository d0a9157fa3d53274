// End-to-end integration tests spanning the whole stack: the flows a
// downstream user of lodviz would actually run.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <vector>

#include "core/engine.h"
#include "core/ldvm.h"
#include "explore/browser.h"
#include "explore/interest.h"
#include "explore/progressive.h"
#include "explore/summary.h"
#include "hier/hetree.h"
#include "rdf/ntriples.h"
#include "workload/synthetic_lod.h"
#include "test_util.h"

namespace lodviz {
namespace {

/// Turtle in -> explore -> CONSTRUCT out -> N-Triples round trip.
TEST(IntegrationTest, TurtleToConstructToNTriples) {
  core::Engine engine;
  ASSERT_TRUE(engine
                  .LoadTurtle(R"(
@prefix ex: <http://shop.example/> .
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
ex:p1 a ex:Product ; rdfs:label "Anvil" ; ex:price 99.5 ; ex:madeBy ex:acme .
ex:p2 a ex:Product ; rdfs:label "Rocket skates" ; ex:price 240.0 ; ex:madeBy ex:acme .
ex:p3 a ex:Product ; rdfs:label "Bird seed" ; ex:price 5.25 ; ex:madeBy ex:birdco .
ex:acme a ex:Company ; rdfs:label "ACME Corp" .
ex:birdco a ex:Company ; rdfs:label "BirdCo" .
)")
                  .ok());

  // SPARQL over the turtle data.
  auto expensive = engine.Query(
      "PREFIX ex: <http://shop.example/> "
      "SELECT ?label WHERE { ?p ex:price ?v ; "
      "<http://www.w3.org/2000/01/rdf-schema#label> ?label . "
      "FILTER(?v > 50) } ORDER BY ?label");
  ASSERT_TRUE(expensive.ok()) << expensive.status().ToString();
  ASSERT_EQ(expensive->num_rows(), 2u);
  EXPECT_EQ(expensive->rows()[0][0].term.lexical, "Anvil");

  // CONSTRUCT a derived graph and round-trip it through N-Triples.
  auto derived = engine.QueryGraph(
      "PREFIX ex: <http://shop.example/> "
      "CONSTRUCT { ?c ex:sells ?p . } WHERE { ?p ex:madeBy ?c . }");
  ASSERT_TRUE(derived.ok()) << derived.status().ToString();
  EXPECT_EQ(derived->size(), 3u);

  rdf::TripleStore derived_store;
  for (const auto& t : *derived) {
    derived_store.Add(t.subject, t.predicate, t.object);
  }
  std::ostringstream out;
  rdf::WriteNTriples(derived_store, out);
  rdf::TripleStore reloaded;
  auto n = rdf::LoadNTriplesString(out.str(), &reloaded);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.ValueOrDie(), 3u);

  // Browse: ACME sells two products (incoming links via ex:sells).
  explore::ResourceBrowser browser(&derived_store);
  auto acme = browser.Describe(derived_store.dict().Lookup(
      rdf::Term::Iri("http://shop.example/acme")));
  ASSERT_TRUE(acme.ok());
  EXPECT_EQ(acme->outgoing.size(), 2u);
}

/// Dynamic setting: data arrives in pages; after each page the engine
/// re-profiles and the HETree adapts — nothing is precomputed.
TEST(IntegrationTest, StreamingIngestWithIncrementalAnalysis) {
  rdf::TripleStore source;
  workload::GenerateSyntheticLod({.num_entities = 3000, .seed = 11}, &source);
  std::vector<rdf::Triple> triples;
  source.Scan({}, [&](const rdf::Triple& t) {
    triples.push_back(t);
    return true;
  });

  core::Engine engine;
  const rdf::Dictionary& dict = source.dict();
  size_t batches = 0;
  uint64_t last_count = 0;
  for (size_t begin = 0; begin < triples.size(); begin += 2000) {
    const size_t end = std::min(triples.size(), begin + 2000);
    for (size_t i = begin; i < end; ++i) {
      engine.store().Add(dict.term(triples[i].s), dict.term(triples[i].p),
                         dict.term(triples[i].o));
    }
    ++batches;
    // Incremental analysis over the data so far.
    hier::HETree::Options opts;
    opts.lazy = true;
    auto tree = engine.BuildHierarchy(workload::lod::kAge, opts);
    ASSERT_TRUE(tree.ok());
    uint64_t count = tree->node(tree->root()).stats.count;
    EXPECT_GE(count, last_count);
    last_count = count;
  }
  EXPECT_GT(batches, 5u);
  EXPECT_EQ(last_count, 3000u);
}

/// The full SynopsViz-style session: load, profile, recommend, render,
/// drill into a hierarchy, check the session log recorded it all.
TEST(IntegrationTest, FullExplorationSession) {
  core::Engine engine;
  workload::SyntheticLodOptions lod;
  lod.num_entities = 5000;
  lod.seed = 3;
  engine.LoadSynthetic(lod);

  // LDVM end to end.
  core::LdvmPipeline pipeline(&engine);
  auto view = pipeline.Run();
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  EXPECT_GT(view->render.elements_drawn, 0u);

  // Facets narrow, search finds, hierarchy drills.
  auto browser = engine.MakeBrowser();
  ASSERT_FALSE(browser.Facets().empty());
  EXPECT_FALSE(engine.Search("harbor").empty());

  hier::HETree::Options hopts;
  hopts.lazy = true;
  auto tree = engine.BuildHierarchy(workload::lod::kAge, hopts);
  ASSERT_TRUE(tree.ok());
  auto children = tree->Children(tree->root());
  ASSERT_FALSE(children.empty());
  auto stats = tree->RangeStats(30, 50);
  EXPECT_GT(stats.count, 0u);

  // Schema summary fits on a screen even though the data does not.
  explore::SchemaSummary summary =
      explore::BuildSchemaSummary(engine.store());
  EXPECT_LE(summary.classes.size(), 10u);
  // Category IRIs appear only as objects, so entities = the 5000 subjects.
  EXPECT_EQ(summary.total_entities, 5000u);

  // Interest-driven steering over the category facet.
  explore::InterestModel interest(&engine.store());
  rdf::TermId cat0 = engine.store().dict().Lookup(
      rdf::Term::Iri(std::string(workload::lod::kCategoryPrefix) + "0"));
  ASSERT_NE(cat0, rdf::kInvalidTermId);
  int marked = 0;
  engine.store().Scan(
      {rdf::kInvalidTermId,
       engine.store().dict().Lookup(rdf::Term::Iri(workload::lod::kCategory)),
       cat0},
      [&](const rdf::Triple& t) {
        interest.MarkInteresting(t.s);
        return ++marked < 5;
      });
  ASSERT_EQ(interest.num_marked(), 5u);
  auto signals = interest.TopSignals(5);
  ASSERT_FALSE(signals.empty());
  // The shared category must rank among the strongest signals (the marked
  // five may also share a type, which can legitimately tie or beat it).
  bool has_cat0 = false;
  for (const auto& sig : signals) has_cat0 |= sig.value == cat0;
  EXPECT_TRUE(has_cat0);
  auto suggestions = interest.SuggestEntities(5);
  EXPECT_FALSE(suggestions.empty());

  // The session log captured load/query/render operations.
  EXPECT_GE(engine.session().size(), 3u);
  EXPECT_GT(engine.session().TotalLatencyMs(), 0.0);
}

/// Progressive + approximate answers agree with exact SPARQL aggregates.
TEST(IntegrationTest, ProgressiveMatchesExactAggregate) {
  core::Engine engine;
  workload::SyntheticLodOptions lod;
  lod.num_entities = 20000;
  lod.seed = 9;
  engine.LoadSynthetic(lod);

  auto exact = engine.Query(
      "SELECT (AVG(?age) AS ?avg) WHERE { ?s <http://lod.example/ontology/age> ?age . }");
  ASSERT_TRUE(exact.ok());
  double exact_avg = test::Unwrap(exact->rows()[0][0].term.AsDouble());

  std::vector<double> ages;
  engine.store().Scan(
      {rdf::kInvalidTermId,
       engine.store().dict().Lookup(
           rdf::Term::Iri(workload::lod::kAge)),
       rdf::kInvalidTermId},
      [&](const rdf::Triple& t) {
        auto v = engine.store().dict().term(t.o).AsDouble();
        if (v.ok()) ages.push_back(*v);
        return true;
      });
  auto trajectory = explore::RunProgressive(ages, 500, 0.02, 5);
  ASSERT_FALSE(trajectory.empty());
  // The early-stopped progressive answer is within its CI of the exact.
  const auto& est = trajectory.back();
  EXPECT_LT(est.rows_seen, ages.size());
  EXPECT_NEAR(est.mean, exact_avg, std::max(0.5, 3 * est.ci95));
}

}  // namespace
}  // namespace lodviz
