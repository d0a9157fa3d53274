#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/random.h"
#include "explore/cache.h"
#include "explore/facets.h"
#include "explore/keyword.h"
#include "explore/prefetch.h"
#include "explore/progressive.h"
#include "explore/session.h"
#include "rdf/triple_store.h"
#include "rdf/vocab.h"
#include "workload/scenario.h"

namespace lodviz::explore {
namespace {

rdf::TripleStore MakeBookStore() {
  using rdf::Term;
  rdf::TripleStore store;
  struct Book {
    const char* title;
    const char* genre;
    const char* language;
  };
  const Book books[] = {
      {"The Old Fortress", "history", "en"},
      {"Modern Databases", "technology", "en"},
      {"Griechische Inseln", "travel", "de"},
      {"Linked Data Basics", "technology", "en"},
      {"Ancient Harbors", "history", "en"},
      {"Databases in Depth", "technology", "de"},
  };
  int i = 0;
  for (const Book& b : books) {
    std::string s = "http://x/book" + std::to_string(i++);
    store.Add(Term::Iri(s), Term::Iri(rdf::vocab::kRdfsLabel),
              Term::LangLiteral(b.title, "en"));
    store.Add(Term::Iri(s), Term::Iri("http://x/genre"),
              Term::Literal(b.genre));
    store.Add(Term::Iri(s), Term::Iri("http://x/language"),
              Term::Literal(b.language));
  }
  return store;
}

TEST(FacetsTest, ListsFacetsWithCounts) {
  rdf::TripleStore store = MakeBookStore();
  FacetedBrowser browser(&store);
  EXPECT_EQ(browser.num_matching(), 6u);

  auto facets = browser.Facets();
  // genre, language, label all qualify (few distinct values).
  ASSERT_GE(facets.size(), 2u);
  const Facet* genre = nullptr;
  for (const Facet& f : facets) {
    if (f.label == "http://x/genre") genre = &f;
  }
  ASSERT_NE(genre, nullptr);
  ASSERT_EQ(genre->values.size(), 3u);
  EXPECT_EQ(genre->values[0].label, "technology");  // most frequent first
  EXPECT_EQ(genre->values[0].count, 3u);
}

TEST(FacetsTest, ConjunctiveRefinement) {
  rdf::TripleStore store = MakeBookStore();
  FacetedBrowser browser(&store);
  rdf::TermId genre = store.dict().Lookup(rdf::Term::Iri("http://x/genre"));
  rdf::TermId tech = store.dict().Lookup(rdf::Term::Literal("technology"));
  rdf::TermId lang = store.dict().Lookup(rdf::Term::Iri("http://x/language"));
  rdf::TermId de = store.dict().Lookup(rdf::Term::Literal("de"));

  ASSERT_TRUE(browser.Select(genre, tech).ok());
  EXPECT_EQ(browser.num_matching(), 3u);
  ASSERT_TRUE(browser.Select(lang, de).ok());
  EXPECT_EQ(browser.num_matching(), 1u);

  // Counts of remaining facets are computed on the refined set.
  auto facets = browser.Facets();
  for (const Facet& f : facets) {
    uint64_t total = 0;
    for (const FacetValue& v : f.values) total += v.count;
    EXPECT_LE(total, 1u * 3u);  // at most the matching set per predicate
  }

}

TEST(FacetsTest, SelectErrors) {
  rdf::TripleStore store = MakeBookStore();
  FacetedBrowser browser(&store);
  EXPECT_FALSE(browser.Select(9999, 1).ok());
}

TEST(FacetsTest, EmptyIntersection) {
  rdf::TripleStore store = MakeBookStore();
  FacetedBrowser browser(&store);
  rdf::TermId genre = store.dict().Lookup(rdf::Term::Iri("http://x/genre"));
  rdf::TermId travel = store.dict().Lookup(rdf::Term::Literal("travel"));
  rdf::TermId lang = store.dict().Lookup(rdf::Term::Iri("http://x/language"));
  rdf::TermId en = store.dict().Lookup(rdf::Term::Literal("en"));
  ASSERT_TRUE(browser.Select(genre, travel).ok());
  ASSERT_TRUE(browser.Select(lang, en).ok());
  EXPECT_EQ(browser.num_matching(), 0u);  // the travel book is German
}

TEST(FacetsTest, DistinctValueAndListingBounds) {
  // A predicate is a facet while it has at most 64 distinct values over
  // the matching set, and a facet lists only its 20 most frequent values.
  using rdf::Term;
  rdf::TripleStore store;
  const Term kind = Term::Iri("http://x/kind");
  for (int i = 0; i < 65; ++i) {
    const Term s = Term::Iri("http://x/w" + std::to_string(i));
    const Term v = Term::Literal(std::to_string(i));
    store.Add(s, Term::Iri("http://x/wide"), v);  // 65 distinct values
    if (i < 64) store.Add(s, Term::Iri("http://x/narrow"), v);  // 64
    store.Add(s, kind, Term::Literal(i < 64 ? "a" : "b"));
  }
  // Value "10k" of `ranked` sits on k + 1 subjects (k = 0..24): 25 values
  // with distinct counts.
  for (int k = 0; k < 25; ++k) {
    const std::string label = std::to_string(100 + k);
    for (int j = 0; j <= k; ++j) {
      store.Add(Term::Iri("http://x/r" + std::to_string(k) + "_" +
                          std::to_string(j)),
                Term::Iri("http://x/ranked"), Term::Literal(label));
    }
  }
  auto find = [](const std::vector<Facet>& facets, const std::string& iri) {
    for (const Facet& f : facets) {
      if (f.label == iri) return &f;
    }
    return static_cast<const Facet*>(nullptr);
  };

  FacetedBrowser browser(&store);
  std::vector<Facet> facets = browser.Facets();
  EXPECT_EQ(find(facets, "http://x/wide"), nullptr);
  const Facet* narrow = find(facets, "http://x/narrow");
  ASSERT_NE(narrow, nullptr);
  EXPECT_EQ(narrow->values.size(), 20u);
  const Facet* ranked = find(facets, "http://x/ranked");
  ASSERT_NE(ranked, nullptr);
  ASSERT_EQ(ranked->values.size(), 20u);
  for (int i = 0; i < 20; ++i) {
    const int k = 24 - i;  // most frequent first: 124 (25 subjects) .. 105
    EXPECT_EQ(ranked->values[i].label, std::to_string(100 + k));
    EXPECT_EQ(ranked->values[i].count, static_cast<uint64_t>(k + 1));
  }

  // The bound counts values over the matching set: selecting kind "a"
  // leaves 64 subjects, and `wide` becomes a facet.
  ASSERT_TRUE(browser
                  .Select(store.dict().Lookup(kind),
                          store.dict().Lookup(Term::Literal("a")))
                  .ok());
  facets = browser.Facets();
  const Facet* wide = find(facets, "http://x/wide");
  ASSERT_NE(wide, nullptr);
  EXPECT_EQ(wide->values.size(), 20u);
  EXPECT_EQ(find(facets, "http://x/ranked"), nullptr);
}

TEST(FacetsTest, EqualCountAndLabelBreaksTieById) {
  // The IRI x, the literal "x" and "x" in 40 languages share one label;
  // with equal counts the smaller id comes first, whichever order they
  // were interned in.
  using rdf::Term;
  for (bool literal_first : {true, false}) {
    rdf::TripleStore store;
    const Term pred = Term::Iri("http://x/p");
    const Term iri = Term::Iri("http://x/v");
    const Term literal = Term::Literal("http://x/v");
    store.Add(Term::Iri("http://x/s1"), pred, literal_first ? literal : iri);
    store.Add(Term::Iri("http://x/s2"), pred, literal_first ? iri : literal);
    for (int i = 0; i < 40; ++i) {
      std::string lang = "l";
      lang += std::to_string(i);
      store.Add(Term::Iri("http://x/t" + std::to_string(i)), pred,
                Term::LangLiteral("http://x/v", lang));
    }
    FacetedBrowser browser(&store);
    const std::vector<Facet> facets = browser.Facets();
    ASSERT_EQ(facets.size(), 1u);
    ASSERT_EQ(facets[0].values.size(), 20u);
    EXPECT_EQ(facets[0].values[0].value,
              store.dict().Lookup(literal_first ? literal : iri));
    EXPECT_EQ(facets[0].values[1].value,
              store.dict().Lookup(literal_first ? iri : literal));
    for (size_t i = 1; i < facets[0].values.size(); ++i) {
      EXPECT_LT(facets[0].values[i - 1].value, facets[0].values[i].value);
      EXPECT_EQ(facets[0].values[i].label, "http://x/v");
    }
  }
}

TEST(KeywordTest, FindsByLabelAndRanksLabelHigher) {
  rdf::TripleStore store = MakeBookStore();
  KeywordIndex index = KeywordIndex::Build(store);
  EXPECT_EQ(index.num_documents(), 6u);

  auto hits = index.Search("databases");
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_NE(hits[0].label.find("Databases"), std::string::npos);

  // AND semantics.
  auto and_hits = index.Search("modern databases");
  ASSERT_EQ(and_hits.size(), 1u);
  EXPECT_EQ(and_hits[0].label, "Modern Databases");
}

TEST(KeywordTest, OrFallbackWhenConjunctionEmpty) {
  rdf::TripleStore store = MakeBookStore();
  KeywordIndex index = KeywordIndex::Build(store);
  // No doc has both; falls back to OR.
  auto hits = index.Search("fortress harbors");
  EXPECT_EQ(hits.size(), 2u);
}

TEST(KeywordTest, NoMatch) {
  rdf::TripleStore store = MakeBookStore();
  KeywordIndex index = KeywordIndex::Build(store);
  EXPECT_TRUE(index.Search("zzzznothing").empty());
  EXPECT_TRUE(index.Search("").empty());
}

TEST(LruCacheTest, EvictsLeastRecentlyUsed) {
  LruCache<int, std::string> cache(2);
  cache.Put(1, "one");
  cache.Put(2, "two");
  EXPECT_NE(cache.Get(1), nullptr);  // 1 is now most recent
  cache.Put(3, "three");             // evicts 2
  EXPECT_EQ(cache.Get(2), nullptr);
  EXPECT_NE(cache.Get(1), nullptr);
  EXPECT_NE(cache.Get(3), nullptr);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.hits(), 3u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(LruCacheTest, OverwriteRefreshes) {
  LruCache<int, int> cache(2);
  cache.Put(1, 10);
  cache.Put(2, 20);
  cache.Put(1, 11);  // refresh 1
  cache.Put(3, 30);  // evicts 2, not 1
  EXPECT_NE(cache.Get(1), nullptr);
  EXPECT_EQ(*cache.Get(1), 11);
  EXPECT_EQ(cache.Get(2), nullptr);
}

TEST(PrefetchTest, MomentumPrefetchingLiftsHitRate) {
  uint64_t backend_calls = 0;
  auto fetch = [&](const geo::TileKey& key) {
    ++backend_calls;
    return std::vector<uint64_t>{key.Pack()};
  };

  auto scenario = workload::PanZoomTileScenario(8, 400, 11);

  TilePrefetcher::Options off;
  off.enable_prefetch = false;
  TilePrefetcher cold(fetch, off);
  for (const auto& key : scenario) cold.Request(key);

  TilePrefetcher::Options on;
  on.enable_prefetch = true;
  TilePrefetcher warm(fetch, on);
  for (const auto& key : scenario) warm.Request(key);

  EXPECT_GT(warm.UserHitRate(), cold.UserHitRate() + 0.2)
      << "prefetching should serve many pans from cache";
}

TEST(PrefetchTest, ReturnsCorrectPayload) {
  auto fetch = [](const geo::TileKey& key) {
    return std::vector<uint64_t>{key.Pack(), 42};
  };
  TilePrefetcher prefetcher(fetch, {});
  geo::TileKey key{3, 2, 1};
  auto a = prefetcher.Request(key);
  auto b = prefetcher.Request(key);  // cached
  EXPECT_EQ(a, b);
  ASSERT_EQ(a.size(), 2u);
  EXPECT_EQ(a[0], key.Pack());
}

TEST(ProgressiveTest, EstimateConvergesWithShrinkingCi) {
  Rng rng(3);
  std::vector<double> values;
  for (int i = 0; i < 100000; ++i) values.push_back(rng.Normal(10.0, 4.0));

  auto trajectory = RunProgressive(values, 1000, /*epsilon=*/0.0, 5);
  ASSERT_GT(trajectory.size(), 3u);
  // CI shrinks monotonically-ish; check first vs late.
  EXPECT_GT(trajectory[1].ci95, trajectory[trajectory.size() - 2].ci95);
  // All intermediate estimates are near the true mean.
  for (const auto& est : trajectory) {
    EXPECT_NEAR(est.mean, 10.0, 0.5);
  }
  EXPECT_TRUE(trajectory.back().complete);
  EXPECT_DOUBLE_EQ(trajectory.back().ci95, 0.0);
}

TEST(ProgressiveTest, EarlyStopAtEpsilon) {
  Rng rng(7);
  std::vector<double> values;
  for (int i = 0; i < 1000000; ++i) values.push_back(rng.Normal(100.0, 5.0));
  auto trajectory = RunProgressive(values, 5000, /*epsilon=*/0.01, 9);
  // Must stop far before scanning the million rows.
  EXPECT_LT(trajectory.back().rows_seen, values.size() / 4);
  // ...and the early answer is within ~1%.
  EXPECT_NEAR(trajectory.back().mean, 100.0, 1.5);
}

TEST(ProgressiveTest, TrueMeanWithinCi95MostOfTheTime) {
  Rng seed_rng(1);
  int covered = 0;
  const int kTrials = 60;
  for (int trial = 0; trial < kTrials; ++trial) {
    Rng rng(1000 + trial);
    std::vector<double> values;
    double true_sum = 0;
    for (int i = 0; i < 20000; ++i) {
      double v = rng.UniformDouble(0, 10);
      values.push_back(v);
      true_sum += v;
    }
    double true_mean = true_sum / values.size();
    auto trajectory = RunProgressive(values, 500, 0.0, 77 + trial);
    const auto& first = trajectory.front();  // 500-row estimate
    if (std::abs(first.mean - true_mean) <= first.ci95) ++covered;
  }
  // 95% nominal coverage; allow slack for 60 trials.
  EXPECT_GE(covered, 51);
}

TEST(SessionTest, RecordsAndSummarizes) {
  SessionLog log;
  log.Record(OpKind::kQuery, "q1", 10.0, 100);
  log.Record(OpKind::kZoom, "z1", 30.0, 50);
  log.Record(OpKind::kPan, "p1", 20.0, 25);
  EXPECT_EQ(log.size(), 3u);
  EXPECT_DOUBLE_EQ(log.TotalLatencyMs(), 60.0);
  EXPECT_DOUBLE_EQ(log.MaxLatencyMs(), 30.0);
  std::string trace = log.ToString();
  EXPECT_NE(trace.find("zoom"), std::string::npos);

  // Totals cover every op; the trace only the kept ones.
  for (size_t i = 0; i < SessionLog::kKeptOps; ++i) {
    log.Record(OpKind::kRender, "r", 1.0);
  }
  EXPECT_EQ(log.size(), SessionLog::kKeptOps + 3);
  EXPECT_DOUBLE_EQ(log.TotalLatencyMs(), 60.0 + SessionLog::kKeptOps);
  EXPECT_DOUBLE_EQ(log.MaxLatencyMs(), 30.0);
  EXPECT_EQ(log.ToString().find("zoom"), std::string::npos);
}

}  // namespace
}  // namespace lodviz::explore
