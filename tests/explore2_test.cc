// Tests for the WoD-browser, interest-guidance, and schema-summary
// exploration services.
#include <gtest/gtest.h>

#include "explore/browser.h"
#include "explore/interest.h"
#include "explore/summary.h"
#include "rdf/turtle.h"
#include "rdf/vocab.h"
#include "workload/synthetic_lod.h"

namespace lodviz::explore {
namespace {

rdf::TripleStore MakeCityStore() {
  const char* doc = R"(
@prefix ex: <http://x.org/> .
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
ex:athens a ex:City ;
    rdfs:label "Athens" ;
    ex:population 664046 ;
    ex:country ex:greece .
ex:piraeus a ex:City ;
    rdfs:label "Piraeus" ;
    ex:country ex:greece .
ex:greece a ex:Country ;
    rdfs:label "Greece" .
)";
  rdf::TripleStore store;
  auto n = rdf::LoadTurtleString(doc, &store);
  EXPECT_TRUE(n.ok()) << n.status().ToString();
  return store;
}

TEST(BrowserTest, DescribeShowsPropertiesAndIncoming) {
  rdf::TripleStore store = MakeCityStore();
  ResourceBrowser browser(&store);
  auto iri = [&store](const char* text) {
    return store.dict().Lookup(rdf::Term::Iri(text));
  };
  auto view = browser.Describe(iri("http://x.org/athens"));
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  EXPECT_EQ(view->label, "Athens");
  EXPECT_EQ(view->outgoing.size(), 4u);  // type, label, population, country
  EXPECT_TRUE(view->incoming.empty());

  auto greece = browser.Describe(iri("http://x.org/greece"));
  ASSERT_TRUE(greece.ok());
  EXPECT_EQ(greece->label, "Greece");
  EXPECT_EQ(greece->incoming.size(), 2u);  // two cities point at it
}

TEST(BrowserTest, LinkNavigationAndHistory) {
  rdf::TripleStore store = MakeCityStore();
  ResourceBrowser browser(&store);
  rdf::TermId athens = store.dict().Lookup(rdf::Term::Iri("http://x.org/athens"));
  auto view = browser.Navigate(athens);
  ASSERT_TRUE(view.ok());

  // Follow the country link.
  rdf::TermId link = rdf::kInvalidTermId;
  for (const PropertyRow& row : view->outgoing) {
    if (row.predicate_label == "http://x.org/country") link = row.link;
  }
  ASSERT_NE(link, rdf::kInvalidTermId);
  auto greece = browser.Navigate(link);
  ASSERT_TRUE(greece.ok());
  EXPECT_EQ(greece->label, "Greece");
  EXPECT_EQ(browser.history().size(), 2u);
  EXPECT_EQ(browser.current(), link);

  auto back = browser.Back();
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->label, "Athens");
  EXPECT_EQ(browser.current(), athens);
  EXPECT_FALSE(browser.Back().ok());  // start of history
}

TEST(BrowserTest, RenderAndErrors) {
  rdf::TripleStore store = MakeCityStore();
  ResourceBrowser browser(&store);
  auto view = browser.Describe(
      store.dict().Lookup(rdf::Term::Iri("http://x.org/athens")));
  ASSERT_TRUE(view.ok());
  std::string text = browser.Render(*view);
  EXPECT_NE(text.find("Athens"), std::string::npos);
  EXPECT_NE(text.find("[navigable]"), std::string::npos);

  EXPECT_FALSE(browser.Describe(999999).ok());
}

TEST(InterestTest, FindsDiscriminatingSignalsAndSuggests) {
  // 100 entities; 10 are "red cubes", the rest mixed.
  rdf::TripleStore store;
  using rdf::Term;
  for (int i = 0; i < 100; ++i) {
    std::string s = "http://x/e" + std::to_string(i);
    bool special = i < 10;
    store.Add(Term::Iri(s), Term::Iri("http://x/color"),
              Term::Literal(special ? "red" : (i % 2 ? "blue" : "green")));
    store.Add(Term::Iri(s), Term::Iri("http://x/shape"),
              Term::Literal(special ? "cube" : (i % 3 ? "ball" : "cone")));
    store.Add(Term::Iri(s), Term::Iri("http://x/size"),
              Term::Literal("medium"));  // uninformative: everyone has it
  }
  InterestModel model(&store);
  // User marks 4 of the special entities.
  for (int i = 0; i < 4; ++i) {
    model.MarkInteresting(
        store.dict().Lookup(Term::Iri("http://x/e" + std::to_string(i))));
  }
  ASSERT_EQ(model.num_marked(), 4u);

  auto signals = model.TopSignals(5);
  ASSERT_GE(signals.size(), 2u);
  // red and cube should be the strongest signals; "medium" must not appear.
  EXPECT_TRUE(signals[0].value_label == "red" ||
              signals[0].value_label == "cube");
  for (const auto& s : signals) {
    EXPECT_NE(s.value_label, "medium");
    EXPECT_GT(s.lift, 1.0);
  }

  // Suggestions should be the other red cubes (e4..e9).
  auto suggestions = model.SuggestEntities(6);
  ASSERT_EQ(suggestions.size(), 6u);
  for (const auto& [entity, score] : suggestions) {
    std::string iri = store.dict().term(entity).lexical;
    int idx = std::stoi(iri.substr(iri.find("/e") + 2));
    EXPECT_GE(idx, 4);
    EXPECT_LT(idx, 10) << "suggested non-special entity " << iri;
    EXPECT_GT(score, 0.0);
  }
}

TEST(InterestTest, EmptyModelIsSafe) {
  rdf::TripleStore store = MakeCityStore();
  InterestModel model(&store);
  EXPECT_TRUE(model.TopSignals().empty());
  EXPECT_TRUE(model.SuggestEntities().empty());
}

TEST(SummaryTest, SchemaOfCityStore) {
  rdf::TripleStore store = MakeCityStore();
  SchemaSummary summary = BuildSchemaSummary(store);
  EXPECT_EQ(summary.total_entities, 3u);
  ASSERT_EQ(summary.classes.size(), 2u);  // City, Country
  EXPECT_EQ(summary.classes[0].label, "http://x.org/City");
  EXPECT_EQ(summary.classes[0].instances, 2u);
  EXPECT_EQ(summary.classes[1].instances, 1u);

  // One class-to-class edge: City --country--> Country (count 2).
  ASSERT_EQ(summary.edges.size(), 1u);
  EXPECT_EQ(summary.edges[0].predicate_label, "http://x.org/country");
  EXPECT_EQ(summary.edges[0].count, 2u);
  EXPECT_EQ(summary.classes[summary.edges[0].from].label, "http://x.org/City");
  EXPECT_EQ(summary.classes[summary.edges[0].to].label,
            "http://x.org/Country");

  // Datatype properties: labels (3) and population (1).
  uint64_t label_count = 0;
  for (const auto& p : summary.datatype_properties) {
    if (p.predicate_label == rdf::vocab::kRdfsLabel) label_count += p.count;
  }
  EXPECT_EQ(label_count, 3u);

  std::string text = summary.ToString();
  EXPECT_NE(text.find("City"), std::string::npos);
  EXPECT_NE(text.find("country"), std::string::npos);
}

TEST(SummaryTest, UntypedBucketAndScale) {
  rdf::TripleStore store;
  workload::SyntheticLodOptions lod;
  lod.num_entities = 2000;
  lod.with_types = false;  // everything untyped
  workload::GenerateSyntheticLod(lod, &store);
  SchemaSummary summary = BuildSchemaSummary(store);
  ASSERT_GE(summary.classes.size(), 1u);
  EXPECT_EQ(summary.classes[0].label, "(untyped)");
  // Summary stays tiny even though the instance graph is large.
  EXPECT_LT(summary.classes.size() + summary.edges.size(), 30u);
}

TEST(SummaryTest, SyntheticLodShape) {
  rdf::TripleStore store;
  workload::SyntheticLodOptions lod;
  lod.num_entities = 3000;
  workload::GenerateSyntheticLod(lod, &store);
  SchemaSummary summary = BuildSchemaSummary(store);
  // Person/Place/Organization + category values turned classes? No —
  // categories are untyped objects, so: 3 classes + untyped bucket.
  ASSERT_GE(summary.classes.size(), 4u);
  uint64_t typed = 0;
  for (const auto& c : summary.classes) {
    if (c.label != "(untyped)") typed += c.instances;
  }
  EXPECT_EQ(typed, 3000u);
  // knows edges dominate the class-to-class links.
  ASSERT_FALSE(summary.edges.empty());
  bool knows_edge = false;
  for (const auto& e : summary.edges) {
    knows_edge |= e.predicate_label == workload::lod::kKnows;
  }
  EXPECT_TRUE(knows_edge);
}

}  // namespace
}  // namespace lodviz::explore
