// Hostile-input hardening for the SPARQL front door: every malformed,
// oversized, or adversarially nested query must come back as a clean
// Err — never a throw, crash, or hang. These inputs all reached the
// parser unsanitized once the serving layer exposed it to the network.

#include <gtest/gtest.h>

#include <string>

#include "rdf/ntriples.h"
#include "rdf/triple_store.h"
#include "sparql/engine.h"
#include "sparql/parser.h"
#include "test_util.h"

namespace lodviz::sparql {
namespace {

// ---------------------------------------------------------------------------
// Numeric bounds: LIMIT/OFFSET used to run through a bare std::stoll,
// which throws std::out_of_range on values past int64 — a remote crash.
// ---------------------------------------------------------------------------

TEST(SparqlHostileTest, OversizedLimitIsErrNotThrow) {
  auto q = ParseQuery(
      "SELECT ?s WHERE { ?s ?p ?o } LIMIT 99999999999999999999");
  ASSERT_FALSE(q.ok());
  EXPECT_NE(q.status().ToString().find("LIMIT"), std::string::npos);
}

TEST(SparqlHostileTest, OversizedOffsetIsErrNotThrow) {
  auto q = ParseQuery(
      "SELECT ?s WHERE { ?s ?p ?o } OFFSET 18446744073709551616000");
  ASSERT_FALSE(q.ok());
  EXPECT_NE(q.status().ToString().find("OFFSET"), std::string::npos);
}

TEST(SparqlHostileTest, NegativeLimitAndOffsetRejected) {
  EXPECT_FALSE(ParseQuery("SELECT ?s WHERE { ?s ?p ?o } LIMIT -1").ok());
  EXPECT_FALSE(ParseQuery("SELECT ?s WHERE { ?s ?p ?o } OFFSET -10").ok());
}

TEST(SparqlHostileTest, NonIntegerLimitRejected) {
  EXPECT_FALSE(ParseQuery("SELECT ?s WHERE { ?s ?p ?o } LIMIT 1.5").ok());
  EXPECT_FALSE(ParseQuery("SELECT ?s WHERE { ?s ?p ?o } LIMIT ten").ok());
  EXPECT_FALSE(ParseQuery("SELECT ?s WHERE { ?s ?p ?o } LIMIT").ok());
}

TEST(SparqlHostileTest, SaneLimitStillParses) {
  auto q = ParseQuery("SELECT ?s WHERE { ?s ?p ?o } LIMIT 10 OFFSET 5");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->limit, 10);
  EXPECT_EQ(q->offset, 5);
}

// ---------------------------------------------------------------------------
// Truncation: a network peer can hang up mid-query at any byte.
// ---------------------------------------------------------------------------

TEST(SparqlHostileTest, TruncatedQueriesAreErrNotCrash) {
  const char* fragments[] = {
      "",
      "SELECT",
      "SELECT ?s",
      "SELECT ?s WHERE",
      "SELECT ?s WHERE {",
      "SELECT ?s WHERE { ?s",
      "SELECT ?s WHERE { ?s <http://x/p>",
      "SELECT ?s WHERE { ?s <http://x/p> ?o",
      "SELECT ?s WHERE { ?s <http://x/p> ?o . FILTER(",
      "SELECT ?s WHERE { ?s <http://x/p> ?o . FILTER(?o >",
      "SELECT ?s WHERE { ?s <http://x/p> ?o } ORDER BY",
      "PREFIX ex: <http://x/",
      "ASK {",
      "CONSTRUCT { ?s ?p ?o } WHERE {",
  };
  for (const char* f : fragments) {
    EXPECT_FALSE(ParseQuery(f).ok()) << "accepted truncated query: " << f;
  }
}

// ---------------------------------------------------------------------------
// Depth bombs: recursive-descent parsing must cap nesting, or a few
// kilobytes of '(' overflow the stack.
// ---------------------------------------------------------------------------

TEST(SparqlHostileTest, DeepParenNestingIsErrNotStackOverflow) {
  const std::string bomb = "SELECT ?s WHERE { ?s ?p ?o . FILTER(" +
                           std::string(20000, '(') + "1" +
                           std::string(20000, ')') + " > 0) }";
  EXPECT_FALSE(ParseQuery(bomb).ok());
}

TEST(SparqlHostileTest, DeepUnaryNestingIsErrNotStackOverflow) {
  // '!' recurses through ParseUnary without consuming a paren.
  const std::string bomb = "SELECT ?s WHERE { ?s ?p ?o . FILTER(" +
                           std::string(100000, '!') + "?s) }";
  EXPECT_FALSE(ParseQuery(bomb).ok());
}

TEST(SparqlHostileTest, DeepGroupNestingIsErrNotStackOverflow) {
  std::string bomb = "SELECT ?s WHERE ";
  bomb += std::string(20000, '{');
  bomb += " ?s ?p ?o ";
  bomb += std::string(20000, '}');
  EXPECT_FALSE(ParseQuery(bomb).ok());
}

TEST(SparqlHostileTest, ModerateNestingStillParses) {
  // Well under the cap: normal queries must be untouched by the guard.
  std::string q = "SELECT ?s WHERE { ?s ?p ?o . FILTER(";
  q += std::string(40, '(');
  q += "?o";
  q += std::string(40, ')');
  q += " > 0) }";
  auto parsed = ParseQuery(q);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
}

// ---------------------------------------------------------------------------
// ORDER BY comparator: mixed valid/invalid typed literals once mapped
// comparison errors to "equal", violating strict weak ordering — UB in
// std::sort, observed as crashes on hostile data. The fix gives every
// term a total order (numeric < temporal < boolean < everything else).
// ---------------------------------------------------------------------------

class OrderBySwoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Valid doubles, invalid doubles ("abc", empty), an IRI, a date, and
    // a plain string under one predicate — the comparator sees every
    // cross-class pair during the sort.
    const char* doc = R"(
<http://x/a> <http://x/v> "3.5"^^<http://www.w3.org/2001/XMLSchema#double> .
<http://x/b> <http://x/v> "abc"^^<http://www.w3.org/2001/XMLSchema#double> .
<http://x/c> <http://x/v> "1.5"^^<http://www.w3.org/2001/XMLSchema#double> .
<http://x/d> <http://x/v> ""^^<http://www.w3.org/2001/XMLSchema#double> .
<http://x/e> <http://x/v> <http://x/not-a-number> .
<http://x/f> <http://x/v> "2016-01-01T00:00:00"^^<http://www.w3.org/2001/XMLSchema#dateTime> .
<http://x/g> <http://x/v> "plain" .
<http://x/h> <http://x/v> "NaN"^^<http://www.w3.org/2001/XMLSchema#double> .
<http://x/i> <http://x/v> "-7"^^<http://www.w3.org/2001/XMLSchema#integer> .
<http://x/j> <http://x/v> "true"^^<http://www.w3.org/2001/XMLSchema#boolean> .
)";
    LODVIZ_CHECK_OK(rdf::LoadNTriplesString(doc, &store_).status());
  }

  rdf::TripleStore store_;
};

TEST_F(OrderBySwoTest, MixedTypesSortWithoutCrashing) {
  QueryEngine engine(&store_);
  auto result = engine.ExecuteString(
      "SELECT ?s ?v WHERE { ?s <http://x/v> ?v } ORDER BY ?v ?s");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->num_rows(), 10u);

  // Numerics first, in value order; undecodable literals sort after all
  // decodable classes.
  const int v = 1;  // SELECT ?s ?v
  EXPECT_EQ(result->rows()[0][v].term.lexical, "-7");
  EXPECT_EQ(result->rows()[1][v].term.lexical, "1.5");
  EXPECT_EQ(result->rows()[2][v].term.lexical, "3.5");
  EXPECT_EQ(result->rows()[3][v].term.lexical, "2016-01-01T00:00:00");
  EXPECT_EQ(result->rows()[4][v].term.lexical, "true");
}

TEST_F(OrderBySwoTest, SortIsDeterministicAcrossRuns) {
  QueryEngine engine(&store_);
  const char* q =
      "SELECT ?s ?v WHERE { ?s <http://x/v> ?v } ORDER BY DESC(?v) ?s";
  auto first = engine.ExecuteString(q);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  for (int i = 0; i < 5; ++i) {
    auto again = engine.ExecuteString(q);
    ASSERT_TRUE(again.ok());
    ASSERT_EQ(again->num_rows(), first->num_rows());
    const int s = 0;  // SELECT ?s ?v
    for (size_t r = 0; r < first->num_rows(); ++r) {
      EXPECT_EQ(again->rows()[r][s].term.lexical,
                first->rows()[r][s].term.lexical)
          << "row " << r << " changed between runs";
    }
  }
}

TEST_F(OrderBySwoTest, SecondaryKeyBreaksValueTies) {
  // "03" and "3" decode to the same number; the secondary ?s key must
  // decide their order, which it can only do if the primary comparator
  // treats them as equivalent (not erroneous).
  rdf::TripleStore store;
  const char* doc = R"(
<http://x/b> <http://x/v> "03"^^<http://www.w3.org/2001/XMLSchema#integer> .
<http://x/a> <http://x/v> "3"^^<http://www.w3.org/2001/XMLSchema#integer> .
)";
  LODVIZ_CHECK_OK(rdf::LoadNTriplesString(doc, &store).status());
  QueryEngine engine(&store);
  auto result = engine.ExecuteString(
      "SELECT ?s ?v WHERE { ?s <http://x/v> ?v } ORDER BY ?v ?s");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->num_rows(), 2u);
  const int s = 0;  // SELECT ?s ?v
  EXPECT_EQ(result->rows()[0][s].term.lexical, "http://x/a");
  EXPECT_EQ(result->rows()[1][s].term.lexical, "http://x/b");
}

// ---------------------------------------------------------------------------
// Execution budgets: the serving layer's defense against queries that
// parse fine but run forever or explode intermediate state.
// ---------------------------------------------------------------------------

TEST(SparqlBudgetTest, RowBudgetMapsToResourceExhausted) {
  rdf::TripleStore store;
  std::string doc;
  for (int i = 0; i < 200; ++i) {
    doc += "<http://x/s" + std::to_string(i) + "> <http://x/p> <http://x/o" +
           std::to_string(i) + "> .\n";
  }
  LODVIZ_CHECK_OK(rdf::LoadNTriplesString(doc, &store).status());

  QueryEngine::Options options;
  options.budget.max_intermediate_rows = 10;
  QueryEngine engine(&store, options);
  auto result = engine.ExecuteString("SELECT ?s ?o WHERE { ?s ?p ?o }");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

// An OPTIONAL is one left-outer join over all of its parents, not a loop
// that re-checks the budget per parent row; both budgets must still stop
// it from inside the optional group.
std::string OptionalBudgetDoc(int n) {
  std::string doc;
  for (int i = 0; i < n; ++i) {
    const std::string s = "<http://x/s" + std::to_string(i) + ">";
    doc += s + " <http://x/p> <http://x/o" + std::to_string(i) + "> .\n";
    doc += s + " <http://x/label> \"s" + std::to_string(i) + "\" .\n";
  }
  return doc;
}

TEST(SparqlBudgetTest, OptionalOverManyParentsHonorsRowBudget) {
  rdf::TripleStore store;
  LODVIZ_CHECK_OK(rdf::LoadNTriplesString(OptionalBudgetDoc(200), &store)
                      .status());
  const char* q =
      "SELECT ?s ?l WHERE { ?s <http://x/p> ?o . "
      "OPTIONAL { ?s <http://x/label> ?l . } }";
  // The required step makes 200 rows and the optional's label step 200
  // more: a cap of 300 passes the first and trips inside the optional.
  QueryEngine::Options options;
  options.budget.max_intermediate_rows = 300;
  QueryEngine engine(&store, options);
  QueryStats stats;
  auto result = engine.ExecuteString(q, &stats);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  EXPECT_GT(stats.intermediate_rows, 300u);

  QueryEngine unlimited(&store);
  auto full = unlimited.ExecuteString(q);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  EXPECT_EQ(full->num_rows(), 200u);
}

TEST(SparqlBudgetTest, OptionalOverManyParentsHonorsTimeBudget) {
  rdf::TripleStore store;
  LODVIZ_CHECK_OK(rdf::LoadNTriplesString(OptionalBudgetDoc(1000), &store)
                      .status());
  // The optional group shares no variable with its 1,000 parents, so each
  // one extends by all 1,000 labels: a million rows, far past 2 ms.
  QueryEngine::Options options;
  options.budget.time_budget_us = 2000;
  QueryEngine engine(&store, options);
  auto result = engine.ExecuteString(
      "SELECT ?s ?l WHERE { ?s <http://x/p> ?o . "
      "OPTIONAL { ?x <http://x/label> ?l . } }");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST(SparqlBudgetTest, UnlimitedBudgetChangesNothing) {
  rdf::TripleStore store;
  LODVIZ_CHECK_OK(
      rdf::LoadNTriplesString("<http://x/s> <http://x/p> <http://x/o> .\n",
                              &store)
          .status());
  QueryEngine engine(&store);  // default: no budget
  auto result = engine.ExecuteString("SELECT ?s WHERE { ?s ?p ?o }");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->num_rows(), 1u);
}

}  // namespace
}  // namespace lodviz::sparql
