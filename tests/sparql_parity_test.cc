// Backend-parity suite: every representative SPARQL query must return a
// bit-identical ResultTable whether it executes over the in-memory
// rdf::TripleStore or the disk-resident DiskTripleStore behind a
// deliberately tiny buffer pool (so scans actually page) — and the answer
// must not depend on how many executor threads are configured, nor on
// whether the engine profiles. Every such leg is compared against the
// checked-in golden answers under tests/golden/ (one file per query; see
// GoldenPath). The suite also carries the TSan regressions for the
// shared-QueryEngine statistics race and for the lock-striped BufferPool
// (concurrent Fetch + eviction).

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "exec/parallel.h"
#include "obs/metrics.h"
#include "rdf/ntriples.h"
#include "rdf/triple_store.h"
#include "sparql/engine.h"
#include "storage/buffer_pool.h"
#include "storage/disk_source_adapter.h"
#include "storage/disk_triple_store.h"
#include "storage/leaf_codec.h"
#include "storage/page_file.h"
#include "test_util.h"

namespace lodviz::sparql {
namespace {

// The same graph the engine unit tests use, so parity covers the exact
// behaviors those tests pin down.
constexpr const char* kDoc = R"(
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

// Every SELECT/ASK query exercised by the engine unit tests, in one list.
const char* kSelectQueries[] = {
    "SELECT ?s WHERE { ?s <http://x/knows> <http://x/bob> . }",
    "SELECT ?a ?c WHERE { ?a <http://x/knows> ?b . ?b <http://x/knows> ?c . }",
    "SELECT ?s WHERE { ?s <http://x/age> ?a . FILTER(?a > 32 && ?a <= 40) } "
    "ORDER BY ?s",
    "SELECT ?s WHERE { ?s <http://x/age> ?a . FILTER(?a * 2 = 60) }",
    "SELECT ?s WHERE { ?s <http://x/name> ?n . FILTER(CONTAINS(?n, \"aro\")) }",
    "SELECT ?s WHERE { ?s <http://x/name> ?n . FILTER(STRSTARTS(?n, \"A\")) }",
    "SELECT ?s ?w WHERE { ?s a <http://x/Person> . "
    "OPTIONAL { ?s <http://x/worksAt> ?w . } } ORDER BY ?s",
    "SELECT ?s WHERE { ?s a <http://x/Person> . "
    "OPTIONAL { ?s <http://x/worksAt> ?w . } FILTER(!BOUND(?w)) } ORDER BY ?s",
    "SELECT ?s WHERE { { ?s <http://x/city> \"Athens\" . } UNION "
    "{ ?s <http://x/city> \"Melbourne\" . } } ORDER BY ?s",
    "SELECT ?p WHERE { ?s ?p ?o . }",
    "SELECT DISTINCT ?p WHERE { ?s ?p ?o . }",
    "SELECT ?p WHERE { ?s ?p ?o . } LIMIT 3 OFFSET 1",
    "SELECT * WHERE { ?s <http://x/knows> ?o . }",
    "SELECT ?t (COUNT(*) AS ?n) WHERE { ?s a ?t . } GROUP BY ?t ORDER BY ?t",
    "SELECT (SUM(?a) AS ?sum) (AVG(?a) AS ?avg) (MIN(?a) AS ?lo) "
    "(MAX(?a) AS ?hi) WHERE { ?s <http://x/age> ?a . }",
    "SELECT (COUNT(DISTINCT ?t) AS ?n) WHERE { ?s a ?t . }",
    "ASK { <http://x/alice> <http://x/knows> ?x . }",
    "ASK { <http://x/carol> <http://x/knows> ?x . }",
    "SELECT ?o WHERE { <http://x/nobody> ?p ?o . }",
    "SELECT ?s ?a WHERE { ?s <http://x/age> ?a . } ORDER BY DESC(?a)",
    "SELECT ?s WHERE { ?s <http://x/name> ?n . "
    "FILTER(CONTAINS(STR(?s), \"alice\")) }",
    "SELECT ?o WHERE { ?s <http://x/name> ?o . FILTER(LANG(?o) = \"\") }",
    "SELECT ?o WHERE { ?s <http://x/age> ?o . "
    "FILTER(DATATYPE(?o) = <http://www.w3.org/2001/XMLSchema#integer>) }",
    "SELECT ?o WHERE { <http://x/alice> ?p ?o . FILTER(isIRI(?o)) }",
    "SELECT ?o WHERE { <http://x/alice> ?p ?o . FILTER(isLITERAL(?o)) }",
    "SELECT ?s WHERE { ?s <http://x/age> ?a . FILTER(1 / (?a - 30) > 0) }",
    "SELECT ?s WHERE { ?s <http://x/age> ?a . FILTER(-?a < -36) }",
    "SELECT ?s WHERE { ?s <http://x/age> ?a . FILTER(!(?a > 32)) }",
    "SELECT ?s ?n WHERE { ?s ?p ?o . ?s <http://x/name> ?n . }",
    "SELECT ?s WHERE { ?s a <http://x/Person> . ?s <http://x/age> ?a . "
    "FILTER(?a < 36) }",
    // OPTIONAL shapes. The left-outer join evaluates each optional group
    // once over all parent rows and must still emit exactly the
    // parent-at-a-time order; a FILTER over certainly-bound variables runs
    // before the optionals.
    "SELECT ?s ?w WHERE { ?s <http://x/age> ?a . "
    "OPTIONAL { ?s <http://x/worksAt> ?w . } FILTER(?a < 36) }",
    "SELECT ?o ?s WHERE { <http://x/alice> ?p ?o . OPTIONAL { ?s a ?o . } }",
    "SELECT ?s ?f ?fa WHERE { ?s a <http://x/Person> . "
    "OPTIONAL { ?s <http://x/knows> ?f . ?f <http://x/age> ?fa . "
    "FILTER(?fa > 36) } }",
    "SELECT ?s ?v WHERE { ?s a <http://x/Person> . "
    "OPTIONAL { { ?s <http://x/city> ?v . } UNION "
    "{ ?s <http://x/worksAt> ?v . } } }",
    "SELECT ?s ?f ?c WHERE { ?s a <http://x/Person> . "
    "OPTIONAL { ?s <http://x/knows> ?f . "
    "OPTIONAL { ?f <http://x/city> ?c . } } }",
    "SELECT ?s ?w WHERE { ?s <http://x/age> ?a . "
    "OPTIONAL { ?s <http://x/worksAt> ?w . } "
    "FILTER(?a > 32) FILTER(!BOUND(?w)) }",
    "SELECT ?s ?c ?w WHERE { { ?s <http://x/city> ?c . } UNION "
    "{ ?s <http://x/worksAt> ?w . } OPTIONAL { ?s <http://x/name> ?c . } "
    "FILTER(?c != \"Athens\") }",
    // Solution modifiers apply after GROUP BY, over the aggregate aliases.
    "SELECT ?t (COUNT(*) AS ?n) WHERE { ?s a ?t . } GROUP BY ?t "
    "ORDER BY DESC(?n) ?t LIMIT 1",
    // MIN/MAX/SUM/AVG over mixed value classes (IRIs, plain strings,
    // integers): numeric pairs compare as numbers, every other pair by
    // lexical form, and SUM/AVG skip what has no numeric value.
    "SELECT (MIN(?o) AS ?lo) (MAX(?o) AS ?hi) (SUM(?o) AS ?sum) "
    "(AVG(?o) AS ?avg) WHERE { <http://x/alice> ?p ?o . }",
    "SELECT (MIN(?o) AS ?lo) (MAX(?o) AS ?hi) (SUM(DISTINCT ?o) AS ?sum) "
    "(AVG(?o) AS ?avg) WHERE { ?s ?p ?o . }",
    "SELECT ?p (MIN(?o) AS ?lo) (MAX(?o) AS ?hi) (SUM(?o) AS ?sum) "
    "(AVG(?o) AS ?avg) WHERE { ?s ?p ?o . } GROUP BY ?p ORDER BY ?p",
    "SELECT ?p (MIN(?v) AS ?lo) (MAX(?v) AS ?hi) (SUM(?v) AS ?sum) "
    "(AVG(?v) AS ?avg) WHERE { ?s ?p ?o . "
    "{ ?s <http://x/name> ?v . } UNION { ?s <http://x/age> ?v . } UNION "
    "{ ?s <http://x/knows> ?v . } } GROUP BY ?p ORDER BY ?p",
};

const char* kGraphQueries[] = {
    "CONSTRUCT { ?b <http://x/knownBy> ?a . } WHERE "
    "{ ?a <http://x/knows> ?b . }",
    "CONSTRUCT { ?s <http://x/employer> ?w . } WHERE { "
    "?s a <http://x/Person> . OPTIONAL { ?s <http://x/worksAt> ?w . } }",
    "CONSTRUCT { ?s a <http://x/Thing> . } WHERE { ?s ?p ?o . }",
    "DESCRIBE <http://x/bob>",
};

std::string TableKey(const ResultTable& t) {
  std::string key = t.ask_result ? "ask:true\n" : "ask:false\n";
  key += t.ToString(t.num_rows());
  return key;
}

std::string GraphKey(const std::vector<rdf::ParsedTriple>& triples) {
  std::string key;
  for (const rdf::ParsedTriple& t : triples) {
    key += t.subject.ToNTriples() + " " + t.predicate.ToNTriples() + " " +
           t.object.ToNTriples() + " .\n";
  }
  return key;
}

// Golden answers: tests/golden/select_NN.txt holds TableKey of
// kSelectQueries[NN], tests/golden/graph_NN.txt holds GraphKey of
// kGraphQueries[NN], both over kDoc. They were reviewed by hand against
// the 15 triples above. There is deliberately no regeneration switch: when
// an answer changes on purpose, the failure message prints the full
// actual rendering, and the file is updated by hand.
std::string GoldenPath(const char* kind, size_t index) {
  char name[32];
  std::snprintf(name, sizeof(name), "/%s_%02zu.txt", kind, index);
  return LODVIZ_GOLDEN_DIR + std::string(name);
}

std::string ReadGolden(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return "<missing golden file " + path + ">";
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

class SparqlParityFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(rdf::LoadNTriplesString(kDoc, &store_).ok());
    std::vector<rdf::Triple> triples;
    store_.Scan(rdf::TriplePattern(), [&](const rdf::Triple& t) {
      triples.push_back(t);
      return true;
    });
    // A 8-page pool is far smaller than the data needs, so disk scans
    // genuinely go through buffer-pool traffic.
    auto disk = storage::DiskTripleStore::Create(file_.path(), 8);
    ASSERT_TRUE(disk.ok()) << disk.status().ToString();
    disk_ = std::move(disk).ValueOrDie();
    ASSERT_TRUE(disk_->BulkLoad(triples).ok());
    adapter_ = std::make_unique<storage::DiskSourceAdapter>(disk_.get(),
                                                            &store_.dict());
    mem_engine_ = std::make_unique<QueryEngine>(&store_);
    disk_engine_ = std::make_unique<QueryEngine>(adapter_.get());
  }

  void TearDown() override {
    adapter_.reset();
    disk_.reset();
  }

  const test::TempFile file_{"parity"};
  rdf::TripleStore store_;
  std::unique_ptr<storage::DiskTripleStore> disk_;
  std::unique_ptr<storage::DiskSourceAdapter> adapter_;
  std::unique_ptr<QueryEngine> mem_engine_;
  std::unique_ptr<QueryEngine> disk_engine_;
};

TEST_F(SparqlParityFixture, SelectAndAskIdenticalAcrossBackends) {
  for (const char* q : kSelectQueries) {
    auto mem = mem_engine_->ExecuteString(q);
    auto disk = disk_engine_->ExecuteString(q);
    ASSERT_TRUE(mem.ok()) << q << "\n" << mem.status().ToString();
    ASSERT_TRUE(disk.ok()) << q << "\n" << disk.status().ToString();
    EXPECT_EQ(TableKey(mem.ValueOrDie()), TableKey(disk.ValueOrDie())) << q;
  }
}

TEST_F(SparqlParityFixture, GraphQueriesIdenticalAcrossBackends) {
  for (const char* q : kGraphQueries) {
    auto mem = mem_engine_->ExecuteGraphString(q);
    auto disk = disk_engine_->ExecuteGraphString(q);
    ASSERT_TRUE(mem.ok()) << q << "\n" << mem.status().ToString();
    ASSERT_TRUE(disk.ok()) << q << "\n" << disk.status().ToString();
    EXPECT_EQ(GraphKey(mem.ValueOrDie()), GraphKey(disk.ValueOrDie())) << q;
  }
}

TEST_F(SparqlParityFixture, PlansIdenticalAcrossBackends) {
  // Bit-identical execution starts with identical plans: the shared
  // (non-virtual) selectivity model over the virtual statistics interface
  // must order joins the same way for both backends.
  for (const char* q : kSelectQueries) {
    auto mem = mem_engine_->ExplainString(q);
    auto disk = disk_engine_->ExplainString(q);
    ASSERT_TRUE(mem.ok()) << q;
    ASSERT_TRUE(disk.ok()) << q;
    EXPECT_EQ(mem.ValueOrDie(), disk.ValueOrDie()) << q;
  }
}

TEST_F(SparqlParityFixture, ExplainMarksExactCardinalities) {
  // The aggregated indexes make (s,p)-bound and p-bound pattern
  // cardinalities exact; the plan says so. A pattern whose estimate still
  // goes through the heuristic shrink factors (bound object) must NOT be
  // marked exact — and both backends agree, because the flag comes out of
  // the shared estimator.
  const char* exact_q =
      "SELECT ?o WHERE { <http://x/alice> <http://x/knows> ?o . }";
  const char* est_q = "SELECT ?s WHERE { ?s <http://x/knows> <http://x/bob> . }";
  for (QueryEngine* engine : {mem_engine_.get(), disk_engine_.get()}) {
    auto exact_plan = engine->ExplainString(exact_q);
    ASSERT_TRUE(exact_plan.ok());
    EXPECT_NE(exact_plan.ValueOrDie().find("[exact]"), std::string::npos)
        << exact_plan.ValueOrDie();
    auto est_plan = engine->ExplainString(est_q);
    ASSERT_TRUE(est_plan.ok());
    EXPECT_EQ(est_plan.ValueOrDie().find("[exact]"), std::string::npos)
        << est_plan.ValueOrDie();
  }
}

TEST_F(SparqlParityFixture, ProfilingDoesNotPerturbResults) {
  // EXPLAIN ANALYZE's contract: per-operator instrumentation observes the
  // execution, it never participates in it. For every parity query, a
  // profiling engine must return bit-identical rows/triples on both
  // backends. (EveryLegMatchesGoldenAnswers also runs every leg profiled.)
  QueryEngine::Options prof_opts;
  prof_opts.profile = true;
  QueryEngine mem_prof(&store_, prof_opts);
  QueryEngine disk_prof(adapter_.get(), prof_opts);
  for (const char* q : kSelectQueries) {
    auto plain = mem_engine_->ExecuteString(q);
    ASSERT_TRUE(plain.ok()) << q << "\n" << plain.status().ToString();
    const std::string want = TableKey(plain.ValueOrDie());
    QueryStats mem_stats;
    QueryStats disk_stats;
    auto mem = mem_prof.ExecuteString(q, &mem_stats);
    auto disk = disk_prof.ExecuteString(q, &disk_stats);
    ASSERT_TRUE(mem.ok() && disk.ok()) << q;
    EXPECT_EQ(want, TableKey(mem.ValueOrDie())) << q;
    EXPECT_EQ(want, TableKey(disk.ValueOrDie())) << q;
    // The profiles themselves agree on everything deterministic: same
    // plan, same per-operator actual rows on both backends.
    EXPECT_TRUE(mem_stats.profile.profiled) << q;
    EXPECT_TRUE(disk_stats.profile.profiled) << q;
    EXPECT_EQ(mem_stats.fingerprint, disk_stats.fingerprint) << q;
    ASSERT_EQ(mem_stats.profile.root.children.size(),
              disk_stats.profile.root.children.size())
        << q;
    for (size_t i = 0; i < mem_stats.profile.root.children.size(); ++i) {
      const obs::OperatorProfile& m = mem_stats.profile.root.children[i];
      const obs::OperatorProfile& d = disk_stats.profile.root.children[i];
      EXPECT_EQ(m.op, d.op) << q;
      EXPECT_EQ(m.label, d.label) << q;
      EXPECT_EQ(m.actual_rows, d.actual_rows) << q << " op " << m.op;
      EXPECT_EQ(m.invocations, d.invocations) << q << " op " << m.op;
    }
  }
  for (const char* q : kGraphQueries) {
    auto plain = mem_engine_->ExecuteGraphString(q);
    ASSERT_TRUE(plain.ok()) << q;
    auto mem = mem_prof.ExecuteGraphString(q);
    auto disk = disk_prof.ExecuteGraphString(q);
    ASSERT_TRUE(mem.ok() && disk.ok()) << q;
    EXPECT_EQ(GraphKey(plain.ValueOrDie()), GraphKey(mem.ValueOrDie())) << q;
    EXPECT_EQ(GraphKey(plain.ValueOrDie()), GraphKey(disk.ValueOrDie())) << q;
  }
}

TEST_F(SparqlParityFixture, ExplainAnalyzeWorksOnBothBackends) {
  const char* q =
      "SELECT ?a ?c WHERE { ?a <http://x/knows> ?b . "
      "?b <http://x/knows> ?c . ?a a <http://x/Person> . }";
  auto mem = mem_engine_->ExplainAnalyzeString(q);
  auto disk = disk_engine_->ExplainAnalyzeString(q);
  ASSERT_TRUE(mem.ok()) << mem.status().ToString();
  ASSERT_TRUE(disk.ok()) << disk.status().ToString();
  for (const std::string& report : {mem.ValueOrDie(), disk.ValueOrDie()}) {
    EXPECT_NE(report.find("explain analyze"), std::string::npos) << report;
    EXPECT_NE(report.find("est="), std::string::npos) << report;
    EXPECT_NE(report.find("act="), std::string::npos) << report;
    EXPECT_NE(report.find("inv="), std::string::npos) << report;
  }
  // Wall times differ between backends, but everything else in the
  // reports (plan shape, labels, estimates, actual rows) matches. Strip
  // time fields and compare the rest wholesale.
  auto strip_times = [](const std::string& s) {
    std::string out;
    size_t pos = 0;
    while (pos < s.size()) {
      size_t t = s.find("time=", pos);
      if (t == std::string::npos) {
        out += s.substr(pos);
        break;
      }
      out += s.substr(pos, t - pos);
      size_t end = t;
      while (end < s.size() && s[end] != '\n' && s[end] != ' ') ++end;
      pos = end;
    }
    return out;
  };
  EXPECT_EQ(strip_times(mem.ValueOrDie()), strip_times(disk.ValueOrDie()));
}

TEST_F(SparqlParityFixture, FilterEvalErrorsAreCounted) {
  // FILTER expression errors make the row fail the filter (SPARQL
  // semantics) but must not vanish silently: each one increments
  // sparql.op.filter_errors. "?n + 1" over string names errors per row.
  obs::Counter& errors =
      obs::MetricRegistry::Global().GetCounter("sparql.op.filter_errors");
  const uint64_t before = errors.value();
  auto got = mem_engine_->ExecuteString(
      "SELECT ?s WHERE { ?s <http://x/name> ?n . FILTER(?n + 1 > 0) }");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.ValueOrDie().num_rows(), 0u);
  // Three name triples, one eval error each.
  EXPECT_EQ(errors.value() - before, 3u);
}

TEST_F(SparqlParityFixture, ThreadCountDoesNotChangeResults) {
  for (const char* q : kSelectQueries) {
    exec::SetThreads(1);
    auto serial_mem = mem_engine_->ExecuteString(q);
    auto serial_disk = disk_engine_->ExecuteString(q);
    exec::SetThreads(4);
    auto four_mem = mem_engine_->ExecuteString(q);
    auto four_disk = disk_engine_->ExecuteString(q);
    exec::SetThreads(0);  // hardware default
    auto auto_mem = mem_engine_->ExecuteString(q);
    ASSERT_TRUE(serial_mem.ok() && serial_disk.ok() && four_mem.ok() &&
                four_disk.ok() && auto_mem.ok())
        << q;
    const std::string want = TableKey(serial_mem.ValueOrDie());
    EXPECT_EQ(want, TableKey(four_mem.ValueOrDie())) << q;
    EXPECT_EQ(want, TableKey(auto_mem.ValueOrDie())) << q;
    EXPECT_EQ(want, TableKey(serial_disk.ValueOrDie())) << q;
    EXPECT_EQ(want, TableKey(four_disk.ValueOrDie())) << q;
  }
  exec::SetThreads(0);
}

TEST_F(SparqlParityFixture, EveryLegMatchesGoldenAnswers) {
  // The order contract (DESIGN.md §4.9): for every query, every backend,
  // every thread count, with profiling off and on, the executor returns
  // the checked-in golden answer byte for byte — including row order,
  // since ORDER BY-free queries expose delivery order directly. The
  // profiled legs pin EXPLAIN ANALYZE's contract: the profiler observes,
  // it never adds, drops or reorders a row.
  struct Leg {
    std::string label;
    std::unique_ptr<QueryEngine> engine;
  };
  std::vector<Leg> legs;
  const rdf::TripleSource* sources[] = {&store_, adapter_.get()};
  const char* source_names[] = {"mem", "disk"};
  for (int s = 0; s < 2; ++s) {
    for (bool profile : {false, true}) {
      QueryEngine::Options opts;
      opts.profile = profile;
      legs.push_back(Leg{std::string(source_names[s]) +
                             (profile ? "/profiled" : ""),
                         std::make_unique<QueryEngine>(sources[s], opts)});
    }
  }

  for (int threads : {1, 4, 0}) {
    exec::SetThreads(threads);
    for (size_t i = 0; i < std::size(kSelectQueries); ++i) {
      const char* q = kSelectQueries[i];
      const std::string path = GoldenPath("select", i);
      const std::string want = ReadGolden(path);
      for (const Leg& leg : legs) {
        auto got = leg.engine->ExecuteString(q);
        ASSERT_TRUE(got.ok()) << leg.label << " threads=" << threads << ": "
                              << q << "\n" << got.status().ToString();
        const std::string key = TableKey(got.ValueOrDie());
        EXPECT_EQ(want, key) << leg.label << " threads=" << threads << ": "
                             << q << "\n" << path << " should read:\n"
                             << key;
      }
    }
    for (size_t i = 0; i < std::size(kGraphQueries); ++i) {
      const char* q = kGraphQueries[i];
      const std::string path = GoldenPath("graph", i);
      const std::string want = ReadGolden(path);
      for (const Leg& leg : legs) {
        auto got = leg.engine->ExecuteGraphString(q);
        ASSERT_TRUE(got.ok()) << leg.label << " threads=" << threads << ": "
                              << q << "\n" << got.status().ToString();
        const std::string key = GraphKey(got.ValueOrDie());
        EXPECT_EQ(want, key) << leg.label << " threads=" << threads << ": "
                             << q << "\n" << path << " should read:\n"
                             << key;
      }
    }
  }
  exec::SetThreads(0);
}

// Regression for the `mutable uint64_t intermediate_rows_` race: a single
// QueryEngine must be shareable across threads. Per-query row counts now
// come back through QueryStats, so concurrent queries cannot trample each
// other's statistics. Run under TSan via scripts/check.sh. Every thread
// alternates between a plain and a profiled engine, so profiling races
// are covered too.
TEST(SparqlParitySharedEngine, ConcurrentQueriesOnOneEngine) {
  rdf::TripleStore store;
  ASSERT_TRUE(rdf::LoadNTriplesString(kDoc, &store).ok());
  QueryEngine engine(&store);
  QueryEngine::Options prof_opts;
  prof_opts.profile = true;
  QueryEngine profiled(&store, prof_opts);

  const char* q =
      "SELECT ?a ?c WHERE { ?a <http://x/knows> ?b . "
      "?b <http://x/knows> ?c . }";
  auto want = engine.ExecuteString(q);
  ASSERT_TRUE(want.ok());
  const std::string want_key = TableKey(want.ValueOrDie());

  constexpr int kThreads = 4;
  constexpr int kQueriesPerThread = 16;
  std::vector<std::thread> workers;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<uint64_t> stat_errors(kThreads, 0);
  for (int i = 0; i < kThreads; ++i) {
    workers.emplace_back([&, i] {
      for (int j = 0; j < kQueriesPerThread; ++j) {
        const bool profile = j % 2 == 1;
        QueryStats stats;
        auto got = (profile ? profiled : engine).ExecuteString(q, &stats);
        if (!got.ok() || TableKey(got.ValueOrDie()) != want_key) {
          ++mismatches[i];
        }
        // Each query joins 2 `knows` scans: rows must be per-query, not
        // an accumulating shared total.
        if (stats.intermediate_rows == 0 || stats.intermediate_rows > 8 ||
            stats.profile.profiled != profile) {
          ++stat_errors[i];
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  for (int i = 0; i < kThreads; ++i) {
    EXPECT_EQ(mismatches[i], 0) << "thread " << i;
    EXPECT_EQ(stat_errors[i], 0u) << "thread " << i;
  }
}

TEST(SparqlParitySharedEngine, ConcurrentQueriesOnDiskBackend) {
  // The disk adapter forwards scans straight to B-trees over the
  // lock-striped BufferPool — nothing serializes concurrent callers
  // anymore, so this doubles as a TSan regression for the whole
  // engine → adapter → pool stack. Everyone must still get the right
  // answer out of an 8-page (single-shard) pool under heavy eviction.
  const test::TempFile tmp("parity_shared");
  rdf::TripleStore store;
  ASSERT_TRUE(rdf::LoadNTriplesString(kDoc, &store).ok());
  std::vector<rdf::Triple> triples;
  store.Scan(rdf::TriplePattern(), [&](const rdf::Triple& t) {
    triples.push_back(t);
    return true;
  });
  auto disk = storage::DiskTripleStore::Create(tmp.path(), 8);
  ASSERT_TRUE(disk.ok());
  ASSERT_TRUE(disk.ValueOrDie()->BulkLoad(triples).ok());
  storage::DiskSourceAdapter adapter(disk.ValueOrDie().get(), &store.dict());
  QueryEngine engine(&adapter);
  QueryEngine::Options prof_opts;
  prof_opts.profile = true;
  QueryEngine profiled(&adapter, prof_opts);

  const char* q = "SELECT ?s ?a WHERE { ?s <http://x/age> ?a . } ORDER BY ?s";
  auto want = engine.ExecuteString(q);
  ASSERT_TRUE(want.ok());
  const std::string want_key = TableKey(want.ValueOrDie());

  constexpr int kThreads = 4;
  std::vector<std::thread> workers;
  std::vector<int> mismatches(kThreads, 0);
  for (int i = 0; i < kThreads; ++i) {
    workers.emplace_back([&, i] {
      for (int j = 0; j < 8; ++j) {
        auto got = (j % 2 == 1 ? profiled : engine).ExecuteString(q);
        if (!got.ok() || TableKey(got.ValueOrDie()) != want_key) {
          ++mismatches[i];
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  for (int i = 0; i < kThreads; ++i) EXPECT_EQ(mismatches[i], 0);
}

// --- Striped BufferPool TSan regressions -------------------------------
//
// These live in the parity suite (not storage_test) so scripts/check.sh's
// TSan gate — which runs suites matching ^(Obs|Exec|SparqlParity) — picks
// them up. They replace the old "serialized adapter" concurrency test:
// the pool itself is now the concurrent object under test.

// Fills page `id` with a content pattern a reader can verify byte-for-byte.
void FillPage(uint8_t* data, storage::PageId id) {
  for (size_t i = 0; i < storage::kPageSize; ++i) {
    data[i] = static_cast<uint8_t>((id * 131 + i) & 0xFF);
  }
}

bool CheckPage(const uint8_t* data, storage::PageId id) {
  for (size_t i = 0; i < storage::kPageSize; ++i) {
    if (data[i] != static_cast<uint8_t>((id * 131 + i) & 0xFF)) return false;
  }
  return true;
}

TEST(SparqlParityStripedPool, ConcurrentFetchWithEviction) {
  // 4 readers hammer a 64-frame pool (8 shards) with 256 distinct pages:
  // every Fetch has a 3/4 chance of needing a victim, so the shard-local
  // eviction path runs constantly while other shards serve hits. Content
  // verification catches any frame recycled while still visible.
  const test::TempFile tmp("striped_fetch");
  storage::PageFile file;
  ASSERT_TRUE(file.Open(tmp.path(), /*truncate=*/true).ok());
  constexpr storage::PageId kPages = 256;
  {
    uint8_t buf[storage::kPageSize];
    for (storage::PageId id = 0; id < kPages; ++id) {
      FillPage(buf, id);
      ASSERT_TRUE(file.WritePage(id, buf).ok());
    }
  }
  storage::BufferPool pool(&file, 64);
  EXPECT_GT(pool.num_shards(), 1u);

  constexpr int kThreads = 4;
  std::vector<std::thread> workers;
  std::vector<int> corruptions(kThreads, 0);
  std::vector<int> errors(kThreads, 0);
  for (int i = 0; i < kThreads; ++i) {
    workers.emplace_back([&, i] {
      // Each thread walks all pages at a different coprime stride, so at
      // any instant the threads are in different shards — and sometimes
      // in the same one, which is the interesting case.
      const storage::PageId stride = 1 + 2 * static_cast<storage::PageId>(i);
      storage::PageId id = static_cast<storage::PageId>(i * 17) % kPages;
      for (storage::PageId j = 0; j < 2 * kPages; ++j) {
        auto ref = pool.Fetch(id);
        if (!ref.ok()) {
          ++errors[i];
        } else if (!CheckPage(ref->data(), id)) {
          ++corruptions[i];
        }
        id = (id + stride) % kPages;
      }
    });
  }
  for (std::thread& w : workers) w.join();
  for (int i = 0; i < kThreads; ++i) {
    EXPECT_EQ(errors[i], 0) << "thread " << i;
    EXPECT_EQ(corruptions[i], 0) << "thread " << i;
  }
}

TEST(SparqlParityStripedPool, ShardCountScalesWithCapacity) {
  // PickShards keeps ≥8 frames per shard and caps at 8 shards, so tiny
  // test pools behave exactly like the old single-mutex pool while big
  // pools stripe. (Capacity 4 is the constructor's documented minimum.)
  const test::TempFile tmp("striped_shards");
  storage::PageFile file;
  ASSERT_TRUE(file.Open(tmp.path(), /*truncate=*/true).ok());
  struct Case {
    size_t capacity;
    size_t shards;
  } cases[] = {{4, 1}, {8, 1}, {16, 2}, {32, 4}, {64, 8}, {128, 8}, {1024, 8}};
  for (const Case& c : cases) {
    storage::BufferPool pool(&file, c.capacity);
    EXPECT_EQ(pool.num_shards(), c.shards) << "capacity " << c.capacity;
  }
}

}  // namespace
}  // namespace lodviz::sparql
