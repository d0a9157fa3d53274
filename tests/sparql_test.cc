#include <gtest/gtest.h>

#include <algorithm>

#include "obs/query_log.h"
#include "rdf/ntriples.h"
#include "rdf/triple_store.h"
#include "sparql/engine.h"
#include "sparql/lexer.h"
#include "sparql/parser.h"
#include "test_util.h"

namespace lodviz::sparql {
namespace {

TEST(LexerTest, TokenizesRepresentativeQuery) {
  auto tokens = Tokenize(
      "SELECT ?x WHERE { ?x <http://x/p> \"v\"@en . FILTER(?y >= 10) }");
  ASSERT_TRUE(tokens.ok());
  std::vector<TokenKind> kinds;
  for (const Token& t : tokens.ValueOrDie()) kinds.push_back(t.kind);
  EXPECT_EQ(kinds.front(), TokenKind::kKeyword);
  EXPECT_EQ(kinds.back(), TokenKind::kEof);
  // Spot-check a few tokens.
  const auto& v = tokens.ValueOrDie();
  EXPECT_EQ(v[1].kind, TokenKind::kVar);
  EXPECT_EQ(v[1].text, "x");
  EXPECT_EQ(v[5].kind, TokenKind::kIriRef);
  EXPECT_EQ(v[6].kind, TokenKind::kString);
  EXPECT_EQ(v[7].kind, TokenKind::kLangTag);
  EXPECT_EQ(v[7].text, "en");
}

TEST(LexerTest, KeywordsAreCaseInsensitive) {
  auto tokens = Tokenize("select Where fIlTeR");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ(tokens.ValueOrDie()[0].text, "SELECT");
  EXPECT_EQ(tokens.ValueOrDie()[1].text, "WHERE");
  EXPECT_EQ(tokens.ValueOrDie()[2].text, "FILTER");
}

TEST(LexerTest, Errors) {
  EXPECT_FALSE(Tokenize("<unterminated").ok());
  EXPECT_FALSE(Tokenize("\"unterminated").ok());
  EXPECT_FALSE(Tokenize("? ").ok());
  EXPECT_FALSE(Tokenize("@@").ok());
}

TEST(ParserTest, BasicSelect) {
  auto q = ParseQuery("SELECT ?s ?o WHERE { ?s <http://x/p> ?o . }");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->form, QueryForm::kSelect);
  EXPECT_EQ(q->select_vars, (std::vector<std::string>{"s", "o"}));
  ASSERT_EQ(q->where.triples.size(), 1u);
  EXPECT_TRUE(IsVar(q->where.triples[0].s));
  EXPECT_FALSE(IsVar(q->where.triples[0].p));
}

TEST(ParserTest, PrefixExpansion) {
  auto q = ParseQuery(
      "PREFIX ex: <http://x/> SELECT ?s WHERE { ?s ex:knows ex:bob . }");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(AsTerm(q->where.triples[0].p).lexical, "http://x/knows");
  EXPECT_EQ(AsTerm(q->where.triples[0].o).lexical, "http://x/bob");
}

TEST(ParserTest, SemicolonAndCommaAbbreviations) {
  auto q = ParseQuery(
      "SELECT * WHERE { <http://x/a> <http://x/p> ?b , ?c ; <http://x/q> ?d . }");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ(q->where.triples.size(), 3u);
  // All share the subject.
  for (const auto& t : q->where.triples) {
    EXPECT_EQ(AsTerm(t.s).lexical, "http://x/a");
  }
  EXPECT_EQ(AsTerm(q->where.triples[0].p).lexical, "http://x/p");
  EXPECT_EQ(AsTerm(q->where.triples[1].p).lexical, "http://x/p");
  EXPECT_EQ(AsTerm(q->where.triples[2].p).lexical, "http://x/q");
}

TEST(ParserTest, RdfTypeShorthand) {
  auto q = ParseQuery("SELECT ?s WHERE { ?s a <http://x/Person> . }");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(AsTerm(q->where.triples[0].p).lexical,
            "http://www.w3.org/1999/02/22-rdf-syntax-ns#type");
}

TEST(ParserTest, FilterPrecedence) {
  auto q = ParseQuery(
      "SELECT ?x WHERE { ?x <http://x/p> ?y . FILTER(?y > 1 + 2 * 3 && ?y < 100 || BOUND(?x)) }");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ(q->where.filters.size(), 1u);
  const Expr& root = *q->where.filters[0];
  EXPECT_EQ(root.kind, Expr::Kind::kBinary);
  EXPECT_EQ(root.bin_op, BinOp::kOr);  // || binds loosest
  EXPECT_EQ(root.args[0]->bin_op, BinOp::kAnd);
}

TEST(ParserTest, OptionalAndUnion) {
  auto q = ParseQuery(
      "SELECT * WHERE { ?s <http://x/p> ?o . "
      "OPTIONAL { ?s <http://x/q> ?r . } "
      "{ ?s <http://x/t1> ?u . } UNION { ?s <http://x/t2> ?u . } }");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->where.optionals.size(), 1u);
  EXPECT_EQ(q->where.union_branches.size(), 2u);
}

TEST(ParserTest, SolutionModifiers) {
  auto q = ParseQuery(
      "SELECT DISTINCT ?s WHERE { ?s ?p ?o . } ORDER BY DESC(?s) LIMIT 5 OFFSET 2");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_TRUE(q->distinct);
  ASSERT_EQ(q->order_by.size(), 1u);
  EXPECT_FALSE(q->order_by[0].ascending);
  EXPECT_EQ(q->limit, 5);
  EXPECT_EQ(q->offset, 2);
}

TEST(ParserTest, Aggregates) {
  auto q = ParseQuery(
      "SELECT ?t (COUNT(*) AS ?n) (AVG(?age) AS ?avg) WHERE { ?s <http://x/t> ?t ; "
      "<http://x/age> ?age . } GROUP BY ?t");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ(q->aggregates.size(), 2u);
  EXPECT_EQ(q->aggregates[0].fn, Aggregate::Fn::kCount);
  EXPECT_TRUE(q->aggregates[0].var.empty());
  EXPECT_EQ(q->aggregates[0].alias, "n");
  EXPECT_EQ(q->aggregates[1].fn, Aggregate::Fn::kAvg);
  EXPECT_EQ(q->aggregates[1].var, "age");
  EXPECT_EQ(q->group_by, (std::vector<std::string>{"t"}));
}

TEST(ParserTest, Ask) {
  auto q = ParseQuery("ASK { <http://x/a> ?p ?o . }");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->form, QueryForm::kAsk);
}

TEST(ParserTest, Errors) {
  EXPECT_FALSE(ParseQuery("SELECT WHERE { }").ok());
  EXPECT_FALSE(ParseQuery("SELECT ?x { ?x ?p ?o . } garbage").ok());
  EXPECT_FALSE(ParseQuery("SELECT ?x WHERE { ?x unknown:p ?o . }").ok());
  EXPECT_FALSE(ParseQuery("SELECT ?x WHERE { \"lit\" ?p ?o . }").ok());
  EXPECT_FALSE(ParseQuery("FOO ?x WHERE { }").ok());
}

// ---- engine tests over a small social dataset ----

class EngineFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    const char* doc = R"(
<http://x/alice> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://x/Person> .
<http://x/bob> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://x/Person> .
<http://x/carol> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://x/Person> .
<http://x/acme> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://x/Company> .
<http://x/alice> <http://x/name> "Alice" .
<http://x/bob> <http://x/name> "Bob" .
<http://x/carol> <http://x/name> "Carol" .
<http://x/alice> <http://x/age> "30"^^<http://www.w3.org/2001/XMLSchema#integer> .
<http://x/bob> <http://x/age> "40"^^<http://www.w3.org/2001/XMLSchema#integer> .
<http://x/carol> <http://x/age> "35"^^<http://www.w3.org/2001/XMLSchema#integer> .
<http://x/alice> <http://x/knows> <http://x/bob> .
<http://x/bob> <http://x/knows> <http://x/carol> .
<http://x/alice> <http://x/worksAt> <http://x/acme> .
<http://x/alice> <http://x/city> "Athens" .
<http://x/bob> <http://x/city> "Melbourne" .
)";
    ASSERT_TRUE(rdf::LoadNTriplesString(doc, &store_).ok());
    engine_ = std::make_unique<QueryEngine>(&store_);
  }

  ResultTable Run(const std::string& q) {
    auto r = engine_->ExecuteString(q);
    EXPECT_TRUE(r.ok()) << q << "\n" << r.status().ToString();
    return r.ok() ? std::move(r).ValueOrDie() : ResultTable();
  }

  rdf::TripleStore store_;
  std::unique_ptr<QueryEngine> engine_;
};

TEST_F(EngineFixture, SingleStatement) {
  ResultTable t = Run("SELECT ?s WHERE { ?s <http://x/knows> <http://x/bob> . }");
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.rows()[0][0].term.lexical, "http://x/alice");
}

TEST_F(EngineFixture, TwoHopJoin) {
  ResultTable t = Run(
      "SELECT ?a ?c WHERE { ?a <http://x/knows> ?b . ?b <http://x/knows> ?c . }");
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.rows()[0][0].term.lexical, "http://x/alice");
  EXPECT_EQ(t.rows()[0][1].term.lexical, "http://x/carol");
}

TEST_F(EngineFixture, NumericFilter) {
  ResultTable t = Run(
      "SELECT ?s WHERE { ?s <http://x/age> ?a . FILTER(?a > 32 && ?a <= 40) } ORDER BY ?s");
  ASSERT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.rows()[0][0].term.lexical, "http://x/bob");
  EXPECT_EQ(t.rows()[1][0].term.lexical, "http://x/carol");
}

TEST_F(EngineFixture, ArithmeticInFilter) {
  ResultTable t = Run(
      "SELECT ?s WHERE { ?s <http://x/age> ?a . FILTER(?a * 2 = 60) }");
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.rows()[0][0].term.lexical, "http://x/alice");
}

TEST_F(EngineFixture, StringFunctions) {
  ResultTable t = Run(
      "SELECT ?s WHERE { ?s <http://x/name> ?n . FILTER(CONTAINS(?n, \"aro\")) }");
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.rows()[0][0].term.lexical, "http://x/carol");

  ResultTable t2 = Run(
      "SELECT ?s WHERE { ?s <http://x/name> ?n . FILTER(STRSTARTS(?n, \"A\")) }");
  ASSERT_EQ(t2.num_rows(), 1u);
}

TEST_F(EngineFixture, OptionalLeavesUnbound) {
  ResultTable t = Run(
      "SELECT ?s ?w WHERE { ?s a <http://x/Person> . "
      "OPTIONAL { ?s <http://x/worksAt> ?w . } } ORDER BY ?s");
  ASSERT_EQ(t.num_rows(), 3u);
  EXPECT_TRUE(t.rows()[0][1].bound);   // alice works
  EXPECT_FALSE(t.rows()[1][1].bound);  // bob doesn't
  EXPECT_FALSE(t.rows()[2][1].bound);  // carol doesn't
}

TEST_F(EngineFixture, BoundFilterOnOptional) {
  ResultTable t = Run(
      "SELECT ?s WHERE { ?s a <http://x/Person> . "
      "OPTIONAL { ?s <http://x/worksAt> ?w . } FILTER(!BOUND(?w)) } ORDER BY ?s");
  ASSERT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.rows()[0][0].term.lexical, "http://x/bob");
}

TEST_F(EngineFixture, UnionCombines) {
  ResultTable t = Run(
      "SELECT ?s WHERE { { ?s <http://x/city> \"Athens\" . } UNION "
      "{ ?s <http://x/city> \"Melbourne\" . } } ORDER BY ?s");
  ASSERT_EQ(t.num_rows(), 2u);
}

TEST_F(EngineFixture, DistinctAndLimit) {
  ResultTable all = Run("SELECT ?p WHERE { ?s ?p ?o . }");
  ResultTable distinct = Run("SELECT DISTINCT ?p WHERE { ?s ?p ?o . }");
  EXPECT_GT(all.num_rows(), distinct.num_rows());
  EXPECT_EQ(distinct.num_rows(), 6u);  // type, name, age, knows, worksAt, city

  ResultTable limited =
      Run("SELECT ?p WHERE { ?s ?p ?o . } LIMIT 3 OFFSET 1");
  EXPECT_EQ(limited.num_rows(), 3u);
}

TEST_F(EngineFixture, StarProjection) {
  ResultTable t = Run("SELECT * WHERE { ?s <http://x/knows> ?o . }");
  EXPECT_EQ(t.columns(), (std::vector<std::string>{"s", "o"}));
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST_F(EngineFixture, AggregatesWithGroupBy) {
  ResultTable t = Run(
      "SELECT ?t (COUNT(*) AS ?n) WHERE { ?s a ?t . } GROUP BY ?t ORDER BY ?t");
  ASSERT_EQ(t.num_rows(), 2u);
  // Company: 1, Person: 3 (map ordering by group key string).
  int company = t.rows()[0][0].term.lexical == "http://x/Company" ? 0 : 1;
  EXPECT_EQ(t.rows()[company][1].term.lexical, "1");
  EXPECT_EQ(t.rows()[1 - company][1].term.lexical, "3");
}

TEST_F(EngineFixture, NumericAggregates) {
  ResultTable t = Run(
      "SELECT (SUM(?a) AS ?sum) (AVG(?a) AS ?avg) (MIN(?a) AS ?lo) (MAX(?a) AS ?hi) "
      "WHERE { ?s <http://x/age> ?a . }");
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(test::Unwrap(t.rows()[0][0].term.AsDouble()), 105.0);
  EXPECT_EQ(test::Unwrap(t.rows()[0][1].term.AsDouble()), 35.0);
  EXPECT_EQ(t.rows()[0][2].term.lexical, "30");
  EXPECT_EQ(t.rows()[0][3].term.lexical, "40");
}

TEST_F(EngineFixture, CountDistinct) {
  ResultTable t = Run(
      "SELECT (COUNT(DISTINCT ?t) AS ?n) WHERE { ?s a ?t . }");
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.rows()[0][0].term.lexical, "2");
}

TEST_F(EngineFixture, AskQueries) {
  EXPECT_TRUE(Run("ASK { <http://x/alice> <http://x/knows> ?x . }").ask_result);
  EXPECT_FALSE(Run("ASK { <http://x/carol> <http://x/knows> ?x . }").ask_result);
}

TEST_F(EngineFixture, UnknownConstantYieldsEmptyNotError) {
  ResultTable t = Run("SELECT ?o WHERE { <http://x/nobody> ?p ?o . }");
  EXPECT_EQ(t.num_rows(), 0u);
}

TEST_F(EngineFixture, OrderByDescending) {
  ResultTable t = Run(
      "SELECT ?s ?a WHERE { ?s <http://x/age> ?a . } ORDER BY DESC(?a)");
  ASSERT_EQ(t.num_rows(), 3u);
  EXPECT_EQ(t.rows()[0][1].term.lexical, "40");
  EXPECT_EQ(t.rows()[2][1].term.lexical, "30");
}

TEST_F(EngineFixture, JoinOrderDoesNotChangeResults) {
  const char* queries[] = {
      "SELECT ?a ?c WHERE { ?a <http://x/knows> ?b . ?b <http://x/knows> ?c . }",
      "SELECT ?s ?n WHERE { ?s ?p ?o . ?s <http://x/name> ?n . }",
      "SELECT ?s WHERE { ?s a <http://x/Person> . ?s <http://x/age> ?a . FILTER(?a < 36) }",
  };
  QueryEngine::Options naive_opts;
  naive_opts.optimize_join_order = false;
  QueryEngine naive(&store_, naive_opts);
  for (const char* q : queries) {
    ResultTable opt = Run(q);
    auto r = naive.ExecuteString(q);
    ASSERT_TRUE(r.ok());
    std::vector<std::string> a, b;
    for (const auto& row : opt.rows()) {
      std::string key;
      for (const auto& c : row) key += c.term.ToNTriples() + "|";
      a.push_back(key);
    }
    for (const auto& row : r.ValueOrDie().rows()) {
      std::string key;
      for (const auto& c : row) key += c.term.ToNTriples() + "|";
      b.push_back(key);
    }
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b) << q;
  }
}

TEST_F(EngineFixture, ExpressionFunctions) {
  // STR lifts the lexical form of an IRI.
  ResultTable t = Run(
      "SELECT ?s WHERE { ?s <http://x/name> ?n . "
      "FILTER(CONTAINS(STR(?s), \"alice\")) }");
  EXPECT_EQ(t.num_rows(), 1u);

  // LANG and DATATYPE.
  ResultTable lang = Run(
      "SELECT ?o WHERE { ?s <http://x/name> ?o . FILTER(LANG(?o) = \"\") }");
  EXPECT_EQ(lang.num_rows(), 3u);  // plain literals have no language
  ResultTable dt = Run(
      "SELECT ?o WHERE { ?s <http://x/age> ?o . "
      "FILTER(DATATYPE(?o) = <http://www.w3.org/2001/XMLSchema#integer>) }");
  EXPECT_EQ(dt.num_rows(), 3u);

  // isIRI / isLITERAL partition objects.
  ResultTable iris = Run(
      "SELECT ?o WHERE { <http://x/alice> ?p ?o . FILTER(isIRI(?o)) }");
  ResultTable lits = Run(
      "SELECT ?o WHERE { <http://x/alice> ?p ?o . FILTER(isLITERAL(?o)) }");
  EXPECT_EQ(iris.num_rows() + lits.num_rows(), 6u);  // all of alice's triples
}

TEST_F(EngineFixture, DivisionByZeroRejectsRow) {
  // SPARQL error semantics: an erroring FILTER drops the row, not the query.
  ResultTable t = Run(
      "SELECT ?s WHERE { ?s <http://x/age> ?a . FILTER(1 / (?a - 30) > 0) }");
  // alice (age 30) divides by zero and is dropped; bob/carol pass.
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST_F(EngineFixture, NegationAndUnaryMinus) {
  ResultTable t = Run(
      "SELECT ?s WHERE { ?s <http://x/age> ?a . FILTER(-?a < -36) }");
  EXPECT_EQ(t.num_rows(), 1u);  // only bob (40)
  ResultTable n = Run(
      "SELECT ?s WHERE { ?s <http://x/age> ?a . FILTER(!(?a > 32)) }");
  EXPECT_EQ(n.num_rows(), 1u);  // only alice
}

TEST_F(EngineFixture, ConstructBuildsNewTriples) {
  auto triples = engine_->ExecuteGraphString(
      "CONSTRUCT { ?b <http://x/knownBy> ?a . } WHERE { ?a <http://x/knows> ?b . }");
  ASSERT_TRUE(triples.ok()) << triples.status().ToString();
  ASSERT_EQ(triples->size(), 2u);
  for (const auto& t : *triples) {
    EXPECT_EQ(t.predicate.lexical, "http://x/knownBy");
  }
}

TEST_F(EngineFixture, ConstructSkipsUnboundAndInvalid) {
  // ?w is only bound via OPTIONAL; template instances with unbound ?w
  // are skipped rather than erroring.
  auto triples = engine_->ExecuteGraphString(
      "CONSTRUCT { ?s <http://x/employer> ?w . } WHERE { "
      "?s a <http://x/Person> . OPTIONAL { ?s <http://x/worksAt> ?w . } }");
  ASSERT_TRUE(triples.ok()) << triples.status().ToString();
  EXPECT_EQ(triples->size(), 1u);  // only alice works somewhere
}

TEST_F(EngineFixture, ConstructDeduplicates) {
  auto triples = engine_->ExecuteGraphString(
      "CONSTRUCT { ?s a <http://x/Thing> . } WHERE { ?s ?p ?o . }");
  ASSERT_TRUE(triples.ok());
  // Every subject exactly once despite multiple solutions.
  std::set<std::string> subjects;
  for (const auto& t : *triples) subjects.insert(t.subject.lexical);
  EXPECT_EQ(triples->size(), subjects.size());
}

TEST_F(EngineFixture, DescribeConstant) {
  auto triples = engine_->ExecuteGraphString("DESCRIBE <http://x/bob>");
  ASSERT_TRUE(triples.ok()) << triples.status().ToString();
  // bob: type, name, age, city, knows carol (subject side) + alice knows
  // bob (object side) = 6 triples.
  EXPECT_EQ(triples->size(), 6u);
}

TEST_F(EngineFixture, DescribeVariableWithWhere) {
  auto triples = engine_->ExecuteGraphString(
      "DESCRIBE ?s WHERE { ?s <http://x/age> ?a . FILTER(?a > 38) }");
  ASSERT_TRUE(triples.ok()) << triples.status().ToString();
  // Only bob matches; same 6 triples as above.
  EXPECT_EQ(triples->size(), 6u);
}

TEST_F(EngineFixture, GraphFormsRejectedByTabularApi) {
  EXPECT_FALSE(engine_->ExecuteString("DESCRIBE <http://x/bob>").ok());
  EXPECT_FALSE(
      engine_
          ->ExecuteGraphString("SELECT ?s WHERE { ?s ?p ?o . }")
          .ok());
}

TEST(ParserGraphForms, ConstructTemplateRestrictions) {
  EXPECT_FALSE(ParseQuery(
                   "CONSTRUCT { ?s ?p ?o . FILTER(?o > 1) } WHERE { ?s ?p ?o . }")
                   .ok());
  EXPECT_FALSE(ParseQuery("DESCRIBE").ok());
  auto q = ParseQuery("DESCRIBE <http://x/a> <http://x/b>");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->describe_targets.size(), 2u);
}

TEST_F(EngineFixture, ResultTableToString) {
  ResultTable t = Run("SELECT ?s WHERE { ?s <http://x/city> \"Athens\" . }");
  std::string rendered = t.ToString();
  EXPECT_NE(rendered.find("?s"), std::string::npos);
  EXPECT_NE(rendered.find("alice"), std::string::npos);
}

// ---- query profiling & slow-query journal ----

TEST_F(EngineFixture, ProfileOffLeavesStatsCheap) {
  QueryStats stats;
  ResultTable t = [&] {
    auto r = engine_->ExecuteString(
        "SELECT ?a WHERE { ?a <http://x/knows> ?b . }", &stats);
    EXPECT_TRUE(r.ok());
    return std::move(r).ValueOrDie();
  }();
  EXPECT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(stats.rows_out, 2u);
  EXPECT_GT(stats.latency_us, 0.0);
  // Profiling off and journal disarmed: no fingerprint, no profile tree.
  EXPECT_FALSE(stats.profile.profiled);
  EXPECT_EQ(stats.fingerprint, 0u);
  EXPECT_TRUE(stats.profile.root.children.empty());
}

TEST_F(EngineFixture, ProfileOnRecordsOperatorTree) {
  QueryEngine::Options opts;
  opts.profile = true;
  QueryEngine profiled(&store_, opts);
  QueryStats stats;
  auto r = profiled.ExecuteString(
      "SELECT ?a ?c WHERE { ?a <http://x/knows> ?b . ?b <http://x/knows> ?c . }",
      &stats);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(stats.profile.profiled);
  EXPECT_NE(stats.fingerprint, 0u);
  EXPECT_EQ(stats.profile.fingerprint, stats.fingerprint);
  EXPECT_EQ(stats.profile.rows_out, 1u);
  EXPECT_GT(stats.profile.total_ns, 0);
  // Root mirrors the top-level group: one invocation, two pattern steps.
  const obs::OperatorProfile& root = stats.profile.root;
  EXPECT_EQ(root.invocations, 1u);
  EXPECT_EQ(root.actual_rows, 1u);
  ASSERT_EQ(root.children.size(), 2u);
  for (const obs::OperatorProfile& step : root.children) {
    EXPECT_TRUE(step.op == "scan" || step.op == "hash-join") << step.op;
    EXPECT_FALSE(step.label.empty());
    EXPECT_GE(step.wall_ns, 0);
  }
  // Step invocations count input solutions probed: one empty seed row for
  // the first step, then both of its solutions for the second.
  EXPECT_EQ(root.children[0].invocations, 1u);
  EXPECT_EQ(root.children[0].actual_rows, 2u);
  EXPECT_EQ(root.children[1].invocations, 2u);
  // The join keeps only alice->bob joined with bob->carol.
  EXPECT_EQ(root.children[1].actual_rows, 1u);
}

TEST_F(EngineFixture, ProfileCoversUnionOptionalAndFilter) {
  QueryEngine::Options opts;
  opts.profile = true;
  QueryEngine profiled(&store_, opts);
  QueryStats stats;
  auto r = profiled.ExecuteString(
      "SELECT * WHERE { ?s <http://x/age> ?a . "
      "OPTIONAL { ?s <http://x/city> ?c . } "
      "{ ?s <http://x/knows> ?k . } UNION { ?s <http://x/worksAt> ?k . } "
      "FILTER(?a > 20) }",
      &stats);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const obs::OperatorProfile& root = stats.profile.root;
  // Layout: [step][union][union][pre-filter][optional]. FILTER(?a > 20)
  // reads only ?a, which the required step binds, so it runs below the
  // OPTIONAL.
  ASSERT_EQ(root.children.size(), 5u);
  EXPECT_EQ(root.children[1].op, "union");
  EXPECT_EQ(root.children[2].op, "union");
  EXPECT_EQ(root.children[3].op, "filter");
  EXPECT_EQ(root.children[4].op, "optional");
  // Union branches and the optional mirror their sub-plans.
  EXPECT_EQ(root.children[1].children.size(), 1u);
  EXPECT_EQ(root.children[4].children.size(), 1u);
  // The filter saw the post-union solutions and kept all adults.
  EXPECT_GT(root.children[3].invocations, 0u);
  EXPECT_EQ(root.children[3].actual_rows, 3u);
  // The optional ran once, as one left-outer join over those 3 rows.
  EXPECT_EQ(root.children[4].invocations, 1u);
}

TEST_F(EngineFixture, ExplainPlacesPushedFilterBelowOptional) {
  // ?a is certainly bound: its filter prints before the optional. !BOUND(?w)
  // reads the optional's variable: it stays after it.
  auto plan = engine_->ExplainString(
      "SELECT ?s WHERE { ?s <http://x/age> ?a . "
      "OPTIONAL { ?s <http://x/worksAt> ?w . } "
      "FILTER(?a > 32) FILTER(!BOUND(?w)) }");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const std::string& text = plan.ValueOrDie();
  const size_t first_filter = text.find("filter x1");
  const size_t optional = text.find("optional:");
  ASSERT_NE(first_filter, std::string::npos) << text;
  ASSERT_NE(optional, std::string::npos) << text;
  EXPECT_LT(first_filter, optional) << text;
  EXPECT_NE(text.find("filter x1", optional), std::string::npos) << text;
  EXPECT_NE(text.find("+1 optional ordinal"), std::string::npos) << text;

  // A var-free filter is pushed; one on a variable bound in only one union
  // branch is not.
  auto filter_before_optional = [&](const std::string& q) {
    auto p = engine_->ExplainString(q);
    EXPECT_TRUE(p.ok()) << p.status().ToString();
    const std::string& t = p.ValueOrDie();
    return t.find("filter x1") < t.find("optional:");
  };
  EXPECT_TRUE(filter_before_optional(
      "SELECT ?s WHERE { ?s <http://x/age> ?a . "
      "OPTIONAL { ?s <http://x/worksAt> ?w . } FILTER(1 < 2) }"));
  EXPECT_FALSE(filter_before_optional(
      "SELECT ?s WHERE { { ?s <http://x/city> ?c . } UNION "
      "{ ?s <http://x/worksAt> ?w . } "
      "OPTIONAL { ?s <http://x/name> ?c . } FILTER(?c != \"Athens\") }"));
}

TEST_F(EngineFixture, ExplainAnalyzeCountsOptionalPerOperatorNotPerRow) {
  // The OPTIONAL is one left-outer join over all its parents, so its node
  // and the label scan inside it each run once, whatever the parent count;
  // the pushed filter in front of it reports the rows it kept.
  auto line_of = [](const std::string& report, const std::string& prefix) {
    const size_t at = report.find("\n" + prefix);
    if (at == std::string::npos) return std::string();
    return report.substr(at + 1, report.find('\n', at + 1) - at - 1);
  };
  auto r = engine_->ExplainAnalyzeString(
      "SELECT ?s ?n WHERE { ?s <http://x/age> ?a . "
      "OPTIONAL { ?s <http://x/name> ?n . } FILTER(?a < 32) }");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const std::string& report = r.ValueOrDie();
  const std::string filter = line_of(report, "  filter x1");
  const std::string optional = line_of(report, "  optional");
  const std::string label_scan = line_of(report, "    scan ?s <http://x/name>");
  EXPECT_NE(filter.find("act=1 "), std::string::npos) << report;
  EXPECT_NE(optional.find("act=1 "), std::string::npos) << report;
  EXPECT_NE(optional.find("inv=1 "), std::string::npos) << report;
  EXPECT_NE(label_scan.find("inv=1 "), std::string::npos) << report;

  // Without a filter, all three adults reach the OPTIONAL: still one
  // invocation of the operator, which probes the label once per parent.
  r = engine_->ExplainAnalyzeString(
      "SELECT ?s ?n WHERE { ?s <http://x/age> ?a . "
      "OPTIONAL { ?s <http://x/name> ?n . } }");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const std::string& all = r.ValueOrDie();
  EXPECT_NE(line_of(all, "  optional").find("act=3  inv=1 "),
            std::string::npos)
      << all;
  EXPECT_NE(line_of(all, "    scan ?s <http://x/name>").find("inv=3 "),
            std::string::npos)
      << all;
}

TEST_F(EngineFixture, ProfileWorksForGraphForms) {
  QueryEngine::Options opts;
  opts.profile = true;
  QueryEngine profiled(&store_, opts);
  QueryStats stats;
  auto r = profiled.ExecuteGraphString(
      "CONSTRUCT { ?a <http://x/friend> ?b . } WHERE { ?a <http://x/knows> ?b . }",
      &stats);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->size(), 2u);
  EXPECT_TRUE(stats.profile.profiled);
  EXPECT_NE(stats.fingerprint, 0u);
  EXPECT_EQ(stats.profile.rows_out, 2u);
  ASSERT_EQ(stats.profile.root.children.size(), 1u);
  EXPECT_EQ(stats.profile.root.children[0].actual_rows, 2u);
}

TEST_F(EngineFixture, ExplainAnalyzeRendersActuals) {
  auto r = engine_->ExplainAnalyzeString(
      "SELECT ?a ?c WHERE { ?a <http://x/knows> ?b . ?b <http://x/knows> ?c . }");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const std::string& report = r.ValueOrDie();
  EXPECT_NE(report.find("explain analyze"), std::string::npos) << report;
  EXPECT_NE(report.find("fingerprint=0x"), std::string::npos) << report;
  EXPECT_NE(report.find("est="), std::string::npos) << report;
  EXPECT_NE(report.find("act="), std::string::npos) << report;
  EXPECT_NE(report.find("total: rows_out=1"), std::string::npos) << report;
  // Parse errors surface as Status, not a report.
  EXPECT_FALSE(engine_->ExplainAnalyzeString("SELECT garbage").ok());
}

TEST_F(EngineFixture, SlowQueryJournalCapturesInjectedSlowQuery) {
  obs::QueryLog& journal = obs::QueryLog::Global();
  journal.Clear();
  journal.SetThresholdMicros(0);  // journal everything for the test
  const std::string query_text =
      "SELECT ?s WHERE { ?s <http://x/age> ?a . FILTER(?a > 32) }";
  QueryStats stats;
  auto r = engine_->ExecuteString(query_text, &stats);
  ASSERT_TRUE(r.ok());
  journal.SetThresholdMicros(-1);  // disarm before inspecting

  std::vector<obs::QueryLogEntry> entries = journal.Entries();
  ASSERT_EQ(entries.size(), 1u);
  const obs::QueryLogEntry& e = entries[0];
  EXPECT_EQ(e.query, query_text);
  EXPECT_NE(e.fingerprint, 0u);
  EXPECT_EQ(e.fingerprint, stats.fingerprint);
  EXPECT_EQ(e.rows_out, 2u);
  EXPECT_EQ(e.intermediate_rows, stats.intermediate_rows);
  EXPECT_GT(e.latency_us, 0.0);
  // Journal admission without Options::profile still captures totals, just
  // no per-operator actuals.
  EXPECT_FALSE(e.profile.profiled);
  EXPECT_EQ(e.profile.fingerprint, e.fingerprint);

  // The JSON dump round-trips the entry.
  std::string json = journal.ToJson();
  EXPECT_NE(json.find("\"admitted\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("FILTER(?a > 32)"), std::string::npos) << json;
  journal.Clear();
}

TEST_F(EngineFixture, FastQueriesStayOutOfTheJournal) {
  obs::QueryLog& journal = obs::QueryLog::Global();
  journal.Clear();
  journal.SetThresholdMicros(60'000'000);  // one minute: nothing qualifies
  auto r = engine_->ExecuteString("SELECT ?s WHERE { ?s ?p ?o . }");
  ASSERT_TRUE(r.ok());
  journal.SetThresholdMicros(-1);
  EXPECT_EQ(journal.size(), 0u);
}

}  // namespace
}  // namespace lodviz::sparql
