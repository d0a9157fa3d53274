#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <sstream>
#include <thread>

#include "common/random.h"
#include "rdf/ntriples.h"
#include "rdf/triple_store.h"
#include "rdf/vocab.h"
#include "test_util.h"

namespace lodviz::rdf {
namespace {

TEST(DictionaryTest, InternIsIdempotent) {
  Dictionary dict;
  TermId a = dict.Intern(Term::Iri("http://x/a"));
  TermId b = dict.Intern(Term::Iri("http://x/b"));
  EXPECT_NE(a, b);
  EXPECT_EQ(dict.Intern(Term::Iri("http://x/a")), a);
  EXPECT_EQ(dict.size(), 2u);
}

TEST(DictionaryTest, DistinguishesKindsAndTags) {
  Dictionary dict;
  TermId iri = dict.Intern(Term::Iri("v"));
  TermId lit = dict.Intern(Term::Literal("v"));
  TermId typed = dict.Intern(Term::Literal("v", vocab::kXsdString));
  TermId lang = dict.Intern(Term::LangLiteral("v", "en"));
  TermId blank = dict.Intern(Term::Blank("v"));
  std::set<TermId> ids = {iri, lit, typed, lang, blank};
  EXPECT_EQ(ids.size(), 5u);
}

TEST(DictionaryTest, RoundTrip) {
  Dictionary dict;
  Term t = Term::LangLiteral("caf\xC3\xA9", "fr");
  TermId id = dict.Intern(t);
  EXPECT_EQ(dict.term(id), t);
  EXPECT_EQ(dict.Lookup(t), id);
}

TEST(DictionaryTest, InvalidLookups) {
  Dictionary dict;
  EXPECT_EQ(dict.Lookup(Term::Iri("nope")), kInvalidTermId);
}

class TripleStoreFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    alice_ = store_.dict().InternIri("http://x/alice");
    bob_ = store_.dict().InternIri("http://x/bob");
    carol_ = store_.dict().InternIri("http://x/carol");
    knows_ = store_.dict().InternIri("http://x/knows");
    age_ = store_.dict().InternIri("http://x/age");
    v30_ = store_.dict().InternLiteral("30", vocab::kXsdInteger);
    v40_ = store_.dict().InternLiteral("40", vocab::kXsdInteger);
    store_.AddEncoded({alice_, knows_, bob_});
    store_.AddEncoded({bob_, knows_, carol_});
    store_.AddEncoded({alice_, age_, v30_});
    store_.AddEncoded({bob_, age_, v40_});
  }

  TripleStore store_;
  TermId alice_, bob_, carol_, knows_, age_, v30_, v40_;
};

TEST_F(TripleStoreFixture, MatchBySubject) {
  auto r = store_.Match({alice_, kInvalidTermId, kInvalidTermId});
  EXPECT_EQ(r.size(), 2u);
}

TEST_F(TripleStoreFixture, MatchByPredicate) {
  EXPECT_EQ(store_.Count({kInvalidTermId, knows_, kInvalidTermId}), 2u);
  EXPECT_EQ(store_.Count({kInvalidTermId, age_, kInvalidTermId}), 2u);
}

TEST_F(TripleStoreFixture, MatchByObject) {
  auto r = store_.Match({kInvalidTermId, kInvalidTermId, bob_});
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0].s, alice_);
}

TEST_F(TripleStoreFixture, MatchFullyBound) {
  EXPECT_EQ(store_.Count({alice_, knows_, bob_}), 1u);
  EXPECT_EQ(store_.Count({alice_, knows_, carol_}), 0u);
}

TEST_F(TripleStoreFixture, ScanEarlyStop) {
  int seen = 0;
  store_.Scan(TriplePattern(), [&](const Triple&) {
    ++seen;
    return seen < 2;
  });
  EXPECT_EQ(seen, 2);
}

TEST_F(TripleStoreFixture, VisibleBeforeCompaction) {
  // Nothing was compacted explicitly, yet everything must be
  // query-visible (dynamic setting): the first read publishes it.
  EXPECT_EQ(store_.Count(TriplePattern()), 4u);
  store_.Compact();
  EXPECT_EQ(store_.Count(TriplePattern()), 4u);
}

TEST_F(TripleStoreFixture, DuplicatesRemovedOnCompact) {
  // Removed on the fold, so a duplicate is never delivered, before or
  // after an explicit Compact().
  store_.AddEncoded({alice_, knows_, bob_});
  EXPECT_EQ(store_.Count({alice_, knows_, bob_}), 1u);
  store_.Compact();
  EXPECT_EQ(store_.Count({alice_, knows_, bob_}), 1u);
  EXPECT_EQ(store_.size(), 4u);
}

TEST_F(TripleStoreFixture, DistinctSubjects) {
  // carol appears only as an object.
  EXPECT_EQ(store_.DistinctSubjects(), (std::vector<TermId>{alice_, bob_}));
  // A fold merges new subjects into the snapshot's ascending list.
  store_.AddEncoded({carol_, knows_, alice_});
  store_.AddEncoded({bob_, age_, carol_});
  EXPECT_EQ(store_.DistinctSubjects(),
            (std::vector<TermId>{alice_, bob_, carol_}));
  // The same list the base class's {} scan gives.
  const TripleSource& source = store_;
  EXPECT_EQ(store_.DistinctSubjects(), source.TripleSource::DistinctSubjects());
}

TEST_F(TripleStoreFixture, PredicateCounts) {
  using Counts = std::vector<std::pair<TermId, uint64_t>>;
  EXPECT_EQ(store_.PredicateCounts(), (Counts{{knows_, 2}, {age_, 2}}));
  // A fold merges new predicates into the ascending list.
  const TermId name = store_.dict().InternIri("http://x/name");
  store_.AddEncoded({carol_, name, v30_});
  store_.AddEncoded({carol_, knows_, alice_});
  EXPECT_EQ(store_.PredicateCounts(),
            (Counts{{knows_, 3}, {age_, 2}, {name, 1}}));
}

TEST_F(TripleStoreFixture, StatisticsCountDistinctTriples) {
  store_.AddEncoded({alice_, knows_, bob_});
  store_.AddEncoded({alice_, knows_, bob_});
  store_.AddEncoded({carol_, knows_, alice_});
  EXPECT_EQ(store_.size(), 5u);
  EXPECT_EQ(store_.PredicateCount(knows_), 3u);
  EXPECT_EQ(store_.PredicateCounts().front(), std::make_pair(knows_, 3ul));
  EXPECT_EQ(store_.PredicateCount(age_), 2u);
  EXPECT_EQ(store_.PredicateCount(v30_), 0u);
}

TEST_F(TripleStoreFixture, CallbackMayReenterStore) {
  // Each subject has two triples, so the nested counts sum to 4 x 2.
  uint64_t nested = 0;
  store_.Scan(TriplePattern(), [&](const Triple& t) {
    nested += store_.Count({t.s, kInvalidTermId, kInvalidTermId});
    return true;
  });
  EXPECT_EQ(nested, 8u);
}

std::vector<TriplePattern> RandomPatterns(Rng& rng, TermId s_max, TermId p_max,
                                          TermId o_max) {
  std::vector<TriplePattern> out;
  for (int mask = 0; mask < 8; ++mask) {
    TriplePattern pat;
    if (mask & 1) pat.s = static_cast<TermId>(1 + rng.Uniform(s_max));
    if (mask & 2) pat.p = static_cast<TermId>(1 + rng.Uniform(p_max));
    if (mask & 4) pat.o = static_cast<TermId>(1 + rng.Uniform(o_max));
    out.push_back(pat);
  }
  return out;
}

TEST(TripleStoreSnapshotTest, ScanOrderDoesNotDependOnCompact) {
  // Same inserts — out of order, with duplicates — into a store that is
  // never compacted explicitly and one compacted every few writes.
  Rng rng(11);
  TripleStore lazy;
  TripleStore eager;
  for (int i = 0; i < 400; ++i) {
    Triple t(static_cast<TermId>(1 + rng.Uniform(15)),
             static_cast<TermId>(1 + rng.Uniform(4)),
             static_cast<TermId>(1 + rng.Uniform(15)));
    lazy.AddEncoded(t);
    eager.AddEncoded(t);
    if (i % 37 == 0) eager.Compact();
  }
  EXPECT_EQ(lazy.size(), eager.size());
  const std::vector<Triple> all = lazy.Match(TriplePattern());
  EXPECT_TRUE(std::is_sorted(all.begin(), all.end(), OrderSpo()));
  EXPECT_EQ(std::adjacent_find(all.begin(), all.end()), all.end());
  for (int round = 0; round < 10; ++round) {
    for (const TriplePattern& pat : RandomPatterns(rng, 15, 4, 15)) {
      EXPECT_EQ(lazy.Match(pat), eager.Match(pat));
      EXPECT_EQ(lazy.Count(pat), eager.Count(pat));
    }
  }
}

/// Property test: for random data and every pattern shape, the indexed scan
/// must agree with a naive filter over all triples. Reads interleave with
/// the writes, so every read folds the writes since the last one into a
/// new snapshot.
class PatternAgreement : public ::testing::TestWithParam<int> {};

TEST_P(PatternAgreement, IndexedMatchesNaive) {
  Rng rng(GetParam());
  TripleStore store;
  std::vector<Triple> all;
  for (int i = 0; i < 500; ++i) {
    Triple t(static_cast<TermId>(1 + rng.Uniform(20)),
             static_cast<TermId>(1 + rng.Uniform(5)),
             static_cast<TermId>(1 + rng.Uniform(30)));
    store.AddEncoded(t);
    all.push_back(t);
    if (i % 50 != 49) continue;
    // Dedup the oracle the same way the store does.
    std::vector<Triple> oracle = all;
    std::sort(oracle.begin(), oracle.end(), OrderSpo());
    oracle.erase(std::unique(oracle.begin(), oracle.end()), oracle.end());
    EXPECT_EQ(store.size(), oracle.size());
    for (const TriplePattern& pat : RandomPatterns(rng, 20, 5, 30)) {
      uint64_t naive = static_cast<uint64_t>(
          std::count_if(oracle.begin(), oracle.end(),
                        [&](const Triple& o) { return pat.Matches(o); }));
      EXPECT_EQ(store.Count(pat), naive) << "after " << i + 1 << " writes";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PatternAgreement, ::testing::Range(1, 6));

/// Readers race to fold the same pending writes: each sees the whole
/// fold, and all then share one snapshot with no lock held. Writes finish
/// before any reader starts (the store's contract); run under TSan by
/// scripts/check.sh.
TEST(RdfStoreConcurrency, ReadersRaceToFoldAndKeepTheirSnapshot) {
  constexpr int kReaders = 4;
  TripleStore store;
  Rng rng(3);
  std::vector<Triple> distinct;
  for (int i = 0; i < 2000; ++i) {
    Triple t(static_cast<TermId>(1 + rng.Uniform(50)),
             static_cast<TermId>(1 + rng.Uniform(5)),
             static_cast<TermId>(1 + rng.Uniform(40)));
    store.AddEncoded(t);
    distinct.push_back(t);
  }
  std::sort(distinct.begin(), distinct.end(), OrderSpo());
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());
  const uint64_t n1 = distinct.size();

  std::atomic<bool> go{false};
  std::vector<uint64_t> first(kReaders);
  std::vector<std::vector<Triple>> all(kReaders);
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      while (!go.load()) std::this_thread::yield();
      first[r] = store.Count(TriplePattern());  // races to the first fold
      all[r] = store.Match(TriplePattern());
    });
  }
  go.store(true);
  for (std::thread& t : readers) t.join();

  for (int r = 0; r < kReaders; ++r) {
    EXPECT_EQ(first[r], n1) << "reader " << r;
    EXPECT_EQ(all[r], distinct) << "reader " << r;
  }
}

/// A source that implements only the scan primitive: it hands out fixed
/// runs (one of them empty), so the inherited per-triple Scan is what is
/// under test.
class FixedRunsSource : public TripleSource {
 public:
  explicit FixedRunsSource(std::vector<std::vector<Triple>> runs)
      : runs_(std::move(runs)) {}

  void ScanRuns(const TriplePattern&, const ScanRunFn& fn) const override {
    for (const std::vector<Triple>& run : runs_) {
      if (!fn(run.data(), run.size())) return;
    }
  }
  [[nodiscard]] uint64_t Count(const TriplePattern&) const override {
    return 0;
  }
  const Dictionary& dict() const override { return dict_; }
  [[nodiscard]] uint64_t size() const override { return 0; }
  [[nodiscard]] uint64_t PredicateCount(TermId) const override { return 0; }

 private:
  std::vector<std::vector<Triple>> runs_;
  Dictionary dict_;
};

TEST(TripleSourceScanTest, ScanConcatenatesRunsAndStopsOnFalse) {
  const FixedRunsSource source(
      {{{1, 1, 1}, {1, 1, 2}}, {}, {{2, 1, 1}}, {{3, 1, 1}, {3, 1, 2}}});
  const std::vector<Triple> all = {
      {1, 1, 1}, {1, 1, 2}, {2, 1, 1}, {3, 1, 1}, {3, 1, 2}};
  // Stopping after the n-th triple delivers exactly the first n: n = 1 and
  // n = 4 stop inside a run, n = 2 and n = 3 at a run boundary.
  for (size_t stop_after = 1; stop_after <= all.size() + 1; ++stop_after) {
    std::vector<Triple> got;
    source.Scan(TriplePattern(), [&](const Triple& t) {
      got.push_back(t);
      return got.size() < stop_after;
    });
    const size_t want = std::min(stop_after, all.size());
    EXPECT_EQ(got, std::vector<Triple>(all.begin(), all.begin() + want))
        << "stop_after=" << stop_after;
  }
}

TEST(TripleSourceScanTest, DefaultReadsFollowTheScan) {
  // The base-class DistinctSubjects and PredicateCounts read only
  // ScanRuns({}): subjects deduplicated in scan order, predicates counted
  // and listed ascending.
  const FixedRunsSource source(
      {{{1, 4, 1}, {1, 2, 2}}, {{1, 4, 3}}, {{2, 2, 1}}, {{5, 4, 9}}});
  EXPECT_EQ(source.DistinctSubjects(), (std::vector<TermId>{1, 2, 5}));
  using Counts = std::vector<std::pair<TermId, uint64_t>>;
  EXPECT_EQ(source.PredicateCounts(), (Counts{{2, 2}, {4, 3}}));
  EXPECT_EQ(source.Match(TriplePattern()).size(), 5u);
}

TEST(DictionaryTest, NumberAndScalarValuesMatchTheTerm) {
  // Every kind of term the decoded table distinguishes: the helpers must
  // give the Term's own answer, value and error alike.
  Dictionary dict;
  const std::vector<TermId> ids = {
      dict.InternIri("http://x/a"),
      dict.InternLiteral("42", vocab::kXsdInteger),
      dict.InternLiteral("1e3"),
      dict.InternLiteral("4x", vocab::kXsdDecimal),
      dict.InternLiteral("2020", vocab::kXsdDate),
      dict.InternLiteral("2020-01-02", vocab::kXsdDate),
      dict.InternLiteral("2020-01-02T03:04:05", vocab::kXsdDateTime),
      dict.InternLiteral("not a date", vocab::kXsdDateTime),
      dict.InternLiteral("true", vocab::kXsdBoolean),
      dict.InternLiteral("12"),
      dict.Intern(Term::LangLiteral("7", "en")),
  };
  for (TermId id : ids) {
    const Term& t = dict.term(id);
    const Result<double> number = t.AsDouble();
    const Result<double> got_number = dict.NumberValue(id);
    ASSERT_EQ(got_number.ok(), number.ok()) << t.lexical;
    if (number.ok()) {
      EXPECT_EQ(*got_number, *number) << t.lexical;
    }

    Result<double> scalar = number;
    if (t.IsTemporalLiteral()) {
      Result<int64_t> epoch = t.AsEpochSeconds();
      scalar = epoch.ok() ? Result<double>(static_cast<double>(*epoch))
                          : Result<double>(epoch.status());
    }
    const Result<double> got_scalar = dict.ScalarValue(id);
    ASSERT_EQ(got_scalar.ok(), scalar.ok()) << t.lexical;
    if (scalar.ok()) {
      EXPECT_EQ(*got_scalar, *scalar) << t.lexical;
    } else {
      EXPECT_EQ(got_scalar.status().code(), scalar.status().code())
          << t.lexical;
    }
  }
}

/// Loads a one-line N-Triples document and returns its one statement.
Result<ParsedTriple> LoadLine(std::string_view line) {
  TripleStore store;
  LODVIZ_ASSIGN_OR_RETURN(size_t n, LoadNTriplesString(line, &store));
  if (n != 1) return Status::NotFound("not one statement");
  ParsedTriple pt;
  store.Scan(TriplePattern(), [&](const Triple& t) {
    pt = {store.dict().term(t.s), store.dict().term(t.p),
          store.dict().term(t.o)};
    return false;
  });
  return pt;
}

size_t CountStatements(std::string_view document) {
  TripleStore store;
  return test::Unwrap(LoadNTriplesString(document, &store));
}

TEST(NTriplesTest, ParsesBasicLine) {
  auto r = LoadLine("<http://x/s> <http://x/p> <http://x/o> .");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->subject.lexical, "http://x/s");
  EXPECT_EQ(r->object.lexical, "http://x/o");
}

TEST(NTriplesTest, ParsesLiteralsWithDatatypeAndLang) {
  auto r1 = LoadLine(
      "<http://x/s> <http://x/p> \"42\"^^<http://www.w3.org/2001/XMLSchema#integer> .");
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(r1->object.datatype, vocab::kXsdInteger);

  auto r2 = LoadLine("<http://x/s> <http://x/p> \"hi\"@en .");
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->object.language, "en");
}

TEST(NTriplesTest, ParsesBlankNodes) {
  auto r = LoadLine("_:b1 <http://x/p> _:b2 .");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->subject.is_blank());
  EXPECT_TRUE(r->object.is_blank());
}

TEST(NTriplesTest, SkipsCommentsAndBlanks) {
  EXPECT_EQ(CountStatements("# comment"), 0u);
  EXPECT_EQ(CountStatements("   "), 0u);
}

TEST(NTriplesTest, RejectsMalformed) {
  EXPECT_FALSE(LoadLine("<http://x/s> <http://x/p>").ok());
  EXPECT_FALSE(LoadLine("\"lit\" <http://x/p> <http://x/o> .").ok());
  EXPECT_FALSE(LoadLine("<http://x/s> _:b <http://x/o> .").ok());
  EXPECT_FALSE(LoadLine("<http://x/s> <http://x/p> <http://x/o>").ok());
  EXPECT_FALSE(LoadLine("<unterminated <p> <o> .").ok());
  // An IRI holds no space; a blank label stops at '<', which leaves "<b"
  // as an unclosed IRI.
  EXPECT_FALSE(LoadLine("<http://x/a b> <http://x/p> <http://x/o> .").ok());
  EXPECT_FALSE(LoadLine("_:a<b <http://x/p> <http://x/o> .").ok());
  // Nothing but whitespace or a comment may follow the terminator.
  EXPECT_FALSE(LoadLine("<http://x/a> <http://x/p> <http://x/o> . junk").ok());
  EXPECT_FALSE(LoadLine("<http://x/a> <http://x/p> <http://x/o> .. <x>").ok());
  EXPECT_TRUE(
      LoadLine("<http://x/a> <http://x/p> <http://x/o> . # a comment").ok());
  EXPECT_TRUE(LoadLine("<http://x/a> <http://x/p> <http://x/o> .#c").ok());
  EXPECT_TRUE(LoadLine("<http://x/a> <http://x/p> <http://x/o> . \t  ").ok());
}

TEST(NTriplesTest, DocumentRoundTrip) {
  const char* doc =
      "# people\n"
      "<http://x/alice> <http://x/knows> <http://x/bob> .\n"
      "<http://x/alice> <http://x/name> \"Alice \\\"A\\\"\"@en .\n"
      "<http://x/bob> <http://x/age> \"40\"^^<http://www.w3.org/2001/XMLSchema#integer> .\n";
  TripleStore store;
  auto n = LoadNTriplesString(doc, &store);
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  EXPECT_EQ(n.ValueOrDie(), 3u);

  std::ostringstream out;
  WriteNTriples(store, out);
  TripleStore store2;
  auto n2 = LoadNTriplesString(out.str(), &store2);
  ASSERT_TRUE(n2.ok());
  EXPECT_EQ(n2.ValueOrDie(), 3u);

  std::ostringstream out2;
  WriteNTriples(store2, out2);
  EXPECT_EQ(out.str(), out2.str());
}

TEST(NTriplesTest, LastTermMayTouchTheTerminator) {
  auto lang = LoadLine("<http://x/a> <http://x/p> \"chat\"@en.");
  ASSERT_TRUE(lang.ok()) << lang.status().ToString();
  EXPECT_EQ(lang->object.lexical, "chat");
  EXPECT_EQ(lang->object.language, "en");

  auto region = LoadLine("<http://x/a> <http://x/p> \"x\"@en-US.");
  ASSERT_TRUE(region.ok()) << region.status().ToString();
  EXPECT_EQ(region->object.language, "en-US");

  auto blank = LoadLine("<http://x/a> <http://x/p> _:b1.");
  ASSERT_TRUE(blank.ok()) << blank.status().ToString();
  EXPECT_TRUE(blank->object.is_blank());
  EXPECT_EQ(blank->object.lexical, "b1");

  // A label keeps inner dots; only a trailing one is the terminator.
  auto dotted = LoadLine("_:a.b <http://x/p> _:c.d .");
  ASSERT_TRUE(dotted.ok()) << dotted.status().ToString();
  EXPECT_EQ(dotted->subject.lexical, "a.b");
  EXPECT_EQ(dotted->object.lexical, "c.d");
  auto dotted_last = LoadLine("<http://x/a> <http://x/p> _:c.d.");
  ASSERT_TRUE(dotted_last.ok()) << dotted_last.status().ToString();
  EXPECT_EQ(dotted_last->object.lexical, "c.d");

  // A language tag is letters, digits and '-' only.
  EXPECT_FALSE(LoadLine("<http://x/a> <http://x/p> \"x\"@en\"junk .").ok());

  const char* doc =
      "<http://x/a> <http://x/p> \"chat\"@en.\n"
      "<http://x/a> <http://x/q> \"x\"@en-US.\n"
      "<http://x/a> <http://x/r> _:a.b.\n";
  TripleStore store;
  auto n = LoadNTriplesString(doc, &store);
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  EXPECT_EQ(n.ValueOrDie(), 3u);
  std::ostringstream out;
  WriteNTriples(store, out);
  TripleStore store2;
  auto n2 = LoadNTriplesString(out.str(), &store2);
  ASSERT_TRUE(n2.ok()) << n2.status().ToString() << "\n" << out.str();
  EXPECT_EQ(n2.ValueOrDie(), 3u);
  std::ostringstream out2;
  WriteNTriples(store2, out2);
  EXPECT_EQ(out.str(), out2.str());
  EXPECT_NE(out.str().find("_:a.b ."), std::string::npos) << out.str();
}

TEST(NTriplesTest, StrictModeStopsOnBadLine) {
  const char* doc = "<http://x/a> <http://x/p> <http://x/b> .\nbad line\n";
  TripleStore store;
  auto n = LoadNTriplesString(doc, &store);
  ASSERT_FALSE(n.ok());
  EXPECT_TRUE(n.status().message().starts_with("line 2: "))
      << n.status().ToString();
}

}  // namespace
}  // namespace lodviz::rdf
