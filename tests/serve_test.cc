// The SPARQL serving layer: result serialization goldens, the
// fingerprint-keyed plan cache (LRU, counters, collision handling), the
// Frontend's admission control and status mapping, and a concurrent
// server test that doubles as the TSan suite for serve (suite names
// start with "Serve" so check.sh's TSan gate picks them up).

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/stopwatch.h"
#include "exec/thread_pool.h"
#include "obs/metrics.h"
#include "rdf/ntriples.h"
#include "rdf/triple_store.h"
#include "serve/frontend.h"
#include "serve/http.h"
#include "serve/plan_cache.h"
#include "serve/serialize.h"
#include "serve/server.h"
#include "sparql/engine.h"
#include "sparql/fingerprint.h"
#include "sparql/parser.h"
#include "test_util.h"

namespace lodviz::serve {
namespace {

rdf::TripleStore MakeStore() {
  rdf::TripleStore store;
  const char* doc = R"(
<http://x/a> <http://x/p> "hello" .
<http://x/a> <http://x/name> "Ann \"A\""@en .
<http://x/b> <http://x/p> "3"^^<http://www.w3.org/2001/XMLSchema#integer> .
<http://x/b> <http://x/q> <http://x/a> .
)";
  LODVIZ_CHECK_OK(rdf::LoadNTriplesString(doc, &store).status());
  return store;
}

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

TEST(ServeSerializeTest, JsonBindingsGolden) {
  sparql::ResultTable t({"s", "v"});
  t.AddRow({{rdf::Term::Iri("http://x/a"), true},
            {rdf::Term::LangLiteral("Ann \"A\"", "en"), true}});
  t.AddRow({{rdf::Term::Literal(
                 "3", "http://www.w3.org/2001/XMLSchema#integer"),
             true},
            {rdf::Term(), false}});  // unbound cell must be absent
  const std::string json = ResultTableJson(t, /*is_ask=*/false);
  EXPECT_EQ(json,
            "{\"head\":{\"vars\":[\"s\",\"v\"]},\"results\":{\"bindings\":["
            "{\"s\":{\"type\":\"uri\",\"value\":\"http://x/a\"},"
            "\"v\":{\"type\":\"literal\",\"value\":\"Ann \\\"A\\\"\","
            "\"xml:lang\":\"en\"}},"
            "{\"s\":{\"type\":\"literal\",\"value\":\"3\","
            "\"datatype\":\"http://www.w3.org/2001/XMLSchema#integer\"}}"
            "]}}");
}

TEST(ServeSerializeTest, JsonAskGolden) {
  sparql::ResultTable t;
  t.ask_result = true;
  EXPECT_EQ(ResultTableJson(t, /*is_ask=*/true),
            "{\"head\":{},\"boolean\":true}");
}

TEST(ServeSerializeTest, TsvGolden) {
  sparql::ResultTable t({"s", "v"});
  t.AddRow({{rdf::Term::Iri("http://x/a"), true},
            {rdf::Term::Literal("plain"), true}});
  t.AddRow({{rdf::Term::Blank("b0"), true}, {rdf::Term(), false}});
  EXPECT_EQ(ResultTableTsv(t, /*is_ask=*/false),
            "?s\t?v\n<http://x/a>\t\"plain\"\n_:b0\t\n");
}

TEST(ServeSerializeTest, SerializationIsDeterministic) {
  rdf::TripleStore store = MakeStore();
  sparql::QueryEngine engine(&store);
  const char* q = "SELECT ?s ?o WHERE { ?s ?p ?o } ORDER BY ?s ?o";
  auto a = engine.ExecuteString(q);
  auto b = engine.ExecuteString(q);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(ResultTableJson(a.ValueOrDie(), false),
            ResultTableJson(b.ValueOrDie(), false));
  EXPECT_EQ(ResultTableTsv(a.ValueOrDie(), false),
            ResultTableTsv(b.ValueOrDie(), false));
}

// ---------------------------------------------------------------------------
// Plan cache
// ---------------------------------------------------------------------------

class ServePlanCacheTest : public ::testing::Test {
 protected:
  ServePlanCacheTest() : store_(MakeStore()), engine_(&store_) {}

  sparql::QueryPlan PlanFor(const std::string& text) {
    auto q = sparql::ParseQuery(text);
    LODVIZ_CHECK_OK(q.status());
    return engine_.Plan(q.ValueOrDie());
  }

  rdf::TripleStore store_;
  sparql::QueryEngine engine_;
};

TEST_F(ServePlanCacheTest, MissThenHit) {
  PlanCache cache(4);
  EXPECT_EQ(cache.Lookup(1, "k1"), nullptr);
  cache.Insert(1, "k1", PlanFor("SELECT ?s WHERE { ?s ?p ?o }"));
  auto hit = cache.Lookup(1, "k1");
  ASSERT_NE(hit, nullptr);
}

TEST_F(ServePlanCacheTest, LruEvictsOldest) {
  PlanCache cache(2);
  const sparql::QueryPlan plan = PlanFor("SELECT ?s WHERE { ?s ?p ?o }");
  cache.Insert(1, "k1", plan);
  cache.Insert(2, "k2", plan);
  // Touch k1 so k2 becomes the LRU victim.
  EXPECT_NE(cache.Lookup(1, "k1"), nullptr);
  cache.Insert(3, "k3", plan);
  EXPECT_NE(cache.Lookup(1, "k1"), nullptr);
  EXPECT_EQ(cache.Lookup(2, "k2"), nullptr);  // evicted
  EXPECT_NE(cache.Lookup(3, "k3"), nullptr);
}

TEST_F(ServePlanCacheTest, FingerprintCollisionIsMissNotWrongPlan) {
  PlanCache cache(4);
  cache.Insert(42, "query-A", PlanFor("SELECT ?s WHERE { ?s ?p ?o }"));
  // Same fingerprint, different canonical bytes: must NOT return A's plan.
  obs::Counter& collisions = obs::MetricRegistry::Global().GetCounter(
      "serve.plan_cache.collisions");
  const uint64_t before = collisions.value();
  EXPECT_EQ(cache.Lookup(42, "query-B"), nullptr);
  EXPECT_EQ(collisions.value(), before + 1);
}

TEST_F(ServePlanCacheTest, CountersAdvance) {
  obs::MetricRegistry& reg = obs::MetricRegistry::Global();
  obs::Counter& hits = reg.GetCounter("serve.plan_cache.hits");
  obs::Counter& misses = reg.GetCounter("serve.plan_cache.misses");
  obs::Counter& evictions = reg.GetCounter("serve.plan_cache.evictions");
  const uint64_t h0 = hits.value(), m0 = misses.value(),
                 e0 = evictions.value();
  PlanCache cache(1);
  const sparql::QueryPlan plan = PlanFor("SELECT ?s WHERE { ?s ?p ?o }");
  EXPECT_EQ(cache.Lookup(1, "k1"), nullptr);  // miss
  cache.Insert(1, "k1", plan);
  EXPECT_NE(cache.Lookup(1, "k1"), nullptr);  // hit
  cache.Insert(2, "k2", plan);                // evicts k1
  EXPECT_EQ(hits.value(), h0 + 1);
  EXPECT_EQ(misses.value(), m0 + 1);
  EXPECT_EQ(evictions.value(), e0 + 1);
}

TEST_F(ServePlanCacheTest, ZeroCapacityNeverStores) {
  PlanCache cache(0);
  cache.Insert(1, "k1", PlanFor("SELECT ?s WHERE { ?s ?p ?o }"));
  EXPECT_EQ(cache.Lookup(1, "k1"), nullptr);
}

TEST_F(ServePlanCacheTest, InsertReturnsTheStoredPlan) {
  const std::string text = "SELECT ?s WHERE { ?s ?p ?o }";
  PlanCache cache(4);
  auto stored = cache.Insert(1, "k1", PlanFor(text));
  ASSERT_NE(stored, nullptr);
  EXPECT_EQ(cache.Lookup(1, "k1"), stored);  // the same object, not a copy
  auto replaced = cache.Insert(1, "k1", PlanFor(text));
  EXPECT_NE(replaced, stored);
  EXPECT_EQ(cache.Lookup(1, "k1"), replaced);

  // A disabled cache stores nothing but still hands the plan back, and
  // it executes like a fresh one.
  PlanCache disabled(0);
  auto handed = disabled.Insert(1, "k1", PlanFor(text));
  ASSERT_NE(handed, nullptr);
  EXPECT_EQ(disabled.Lookup(1, "k1"), nullptr);
  auto q = sparql::ParseQuery(text);
  ASSERT_TRUE(q.ok());
  auto planned = engine_.ExecutePlanned(q.ValueOrDie(), *handed);
  auto direct = engine_.Execute(q.ValueOrDie());
  ASSERT_TRUE(planned.ok() && direct.ok());
  EXPECT_EQ(planned->ToString(planned->num_rows()),
            direct->ToString(direct->num_rows()));
}

// ---------------------------------------------------------------------------
// Frontend
// ---------------------------------------------------------------------------

TEST(ServeFrontendTest, AnswersSelectAndAsk) {
  rdf::TripleStore store = MakeStore();
  Frontend frontend(&store, FrontendOptions());
  QueryRequest req;
  req.query = "SELECT ?s WHERE { ?s <http://x/q> <http://x/a> }";
  QueryResponse resp = frontend.Handle(req);
  EXPECT_EQ(resp.status, RequestStatus::kOk);
  EXPECT_EQ(resp.content_type, "application/sparql-results+json");
  EXPECT_NE(resp.body.find("http://x/b"), std::string::npos);
  EXPECT_FALSE(resp.plan_cache_hit);

  // Same query again: identical bytes, now from the plan cache.
  QueryResponse warm = frontend.Handle(req);
  EXPECT_TRUE(warm.plan_cache_hit);
  EXPECT_EQ(warm.body, resp.body);

  req.query = "ASK { ?s <http://x/p> \"hello\" }";
  req.format = ResultFormat::kTsv;
  resp = frontend.Handle(req);
  EXPECT_EQ(resp.status, RequestStatus::kOk);
  EXPECT_EQ(resp.body, "true\n");
}

TEST(ServeFrontendTest, ParseErrorIs400) {
  rdf::TripleStore store = MakeStore();
  Frontend frontend(&store, FrontendOptions());
  QueryRequest req;
  req.query = "SELECT ?s WHERE { ?s ?p ?o } LIMIT 99999999999999999999";
  QueryResponse resp = frontend.Handle(req);
  EXPECT_EQ(resp.status, RequestStatus::kBadRequest);
  EXPECT_EQ(resp.content_type, "text/plain");
}

TEST(ServeFrontendTest, BudgetExhaustionIs504) {
  rdf::TripleStore store;
  std::string doc;
  for (int i = 0; i < 100; ++i) {
    doc += "<http://x/s" + std::to_string(i) + "> <http://x/p> <http://x/o" +
           std::to_string(i) + "> .\n";
  }
  LODVIZ_CHECK_OK(rdf::LoadNTriplesString(doc, &store).status());
  FrontendOptions options;
  options.budget.max_intermediate_rows = 5;
  Frontend frontend(&store, options);
  QueryRequest req;
  req.query = "SELECT ?s ?o WHERE { ?s ?p ?o }";
  QueryResponse resp = frontend.Handle(req);
  EXPECT_EQ(resp.status, RequestStatus::kBudgetExceeded);
}

TEST(ServeFrontendTest, AdmissionControlShedsWhenSaturated) {
  rdf::TripleStore store = MakeStore();
  FrontendOptions options;
  options.max_concurrent = 0;  // every request is over the limit
  Frontend frontend(&store, options);
  obs::Counter& shed = obs::MetricRegistry::Global().GetCounter("serve.shed");
  const uint64_t before = shed.value();
  QueryRequest req;
  req.query = "SELECT ?s WHERE { ?s ?p ?o }";
  QueryResponse resp = frontend.Handle(req);
  EXPECT_EQ(resp.status, RequestStatus::kOverloaded);
  EXPECT_EQ(shed.value(), before + 1);
}

// ---------------------------------------------------------------------------
// HTTP parsing (network-facing: hostile bytes must be clean errors)
// ---------------------------------------------------------------------------

constexpr size_t kMaxRequest = 1 << 20;

TEST(ServeHttpTest, RequestRoundTrip) {
  const std::string raw =
      "POST /sparql HTTP/1.1\r\nHost: x\r\nContent-Type: "
      "application/x-www-form-urlencoded\r\nContent-Length: 11\r\n\r\n"
      "query=ASK%7B";
  auto len = HttpRequestLength(raw, kMaxRequest);
  ASSERT_TRUE(len.ok());
  EXPECT_EQ(len.ValueOrDie(), raw.size() - 1);  // body is 11 of 12 bytes
  auto req = ParseHttpRequest(raw.substr(0, len.ValueOrDie()));
  ASSERT_TRUE(req.ok()) << req.status().ToString();
  EXPECT_EQ(req->method, "POST");
  EXPECT_EQ(req->path, "/sparql");
  EXPECT_EQ(req->headers.at("content-type"),
            "application/x-www-form-urlencoded");
  EXPECT_EQ(req->body, "query=ASK%7");
}

TEST(ServeHttpTest, QueryStringDecoding) {
  auto req = ParseHttpRequest(
      "GET /sparql?query=SELECT%20%3Fs&format=json HTTP/1.1\r\n\r\n");
  ASSERT_TRUE(req.ok()) << req.status().ToString();
  EXPECT_EQ(req->params.at("query"), "SELECT ?s");
  EXPECT_EQ(req->params.at("format"), "json");
}

TEST(ServeHttpTest, HostileBytesAreErrors) {
  EXPECT_FALSE(ParseHttpRequest("GARBAGE\r\n\r\n").ok());
  EXPECT_FALSE(ParseHttpRequest("GET /x\r\n\r\n").ok());           // no version
  EXPECT_FALSE(ParseHttpRequest("GET /x FTP/1.0\r\n\r\n").ok());   // not HTTP
  EXPECT_FALSE(
      ParseHttpRequest("GET /x HTTP/1.1\r\nBadHeader\r\n\r\n").ok());
  EXPECT_FALSE(HttpRequestLength(
                   "GET /x HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
                   kMaxRequest)
                   .ok());
  EXPECT_FALSE(HttpRequestLength(
                   "GET /x HTTP/1.1\r\nContent-Length: 1e9\r\n\r\n",
                   kMaxRequest)
                   .ok());
  // A head that declares more than the cap is refused before any body.
  auto oversized = HttpRequestLength(
      "POST /x HTTP/1.1\r\nContent-Length: 2000\r\n\r\n", 1000);
  ASSERT_FALSE(oversized.ok());
  EXPECT_EQ(oversized.status().code(), StatusCode::kResourceExhausted);
  // So is an unterminated head that already exceeds it.
  auto endless_head =
      HttpRequestLength("GET /x HTTP/1.1\r\n" + std::string(1000, 'h'), 1000);
  ASSERT_FALSE(endless_head.ok());
  EXPECT_EQ(endless_head.status().code(), StatusCode::kResourceExhausted);
  EXPECT_FALSE(PercentDecode("abc%").ok());
  EXPECT_FALSE(PercentDecode("abc%2").ok());
  EXPECT_FALSE(PercentDecode("abc%zz").ok());
}

TEST(ServeHttpTest, IncompleteRequestWantsMoreBytes) {
  auto no_head = HttpRequestLength("GET /x HTTP/1.1\r\n", kMaxRequest);
  ASSERT_TRUE(no_head.ok());
  EXPECT_EQ(no_head.ValueOrDie(), 0u);
  auto short_body =
      HttpRequestLength("POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc",
                        kMaxRequest);
  ASSERT_TRUE(short_body.ok());
  EXPECT_EQ(short_body.ValueOrDie(), 0u);
}

// ---------------------------------------------------------------------------
// Concurrent serving (the serve TSan suite)
// ---------------------------------------------------------------------------

std::string BlockingFetch(int port, const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                sizeof(addr)) < 0) {
    ::close(fd);
    return "";
  }
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n =
        ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char chunk[2048];
  while (true) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    response.append(chunk, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST(ServeConcurrencyTest, ParallelClientsGetConsistentAnswers) {
  rdf::TripleStore store = MakeStore();
  Frontend frontend(&store, FrontendOptions());
  exec::ThreadPool pool(4);
  Server::Options sopts;
  sopts.port = 0;
  sopts.num_workers = 3;
  Server server(&frontend, &pool, sopts);
  LODVIZ_CHECK_OK(server.Start());
  const int port = server.port();

  const std::string request =
      "GET /sparql?query=SELECT%20%3Fs%20WHERE%20%7B%20%3Fs%20"
      "%3Chttp%3A%2F%2Fx%2Fq%3E%20%3Fo%20%7D HTTP/1.1\r\nHost: x\r\n\r\n";
  const std::string reference = BlockingFetch(port, request);
  auto ref = ParseHttpResponse(reference);
  ASSERT_TRUE(ref.ok());
  ASSERT_EQ(ref->status, 200) << ref->body;

  // 6 client threads x 10 requests racing against 3 server workers; all
  // bodies must be identical (std::thread is fine in tests).
  std::vector<std::thread> clients;
  std::vector<int> mismatches(6, 0);
  for (int c = 0; c < 6; ++c) {
    clients.emplace_back([&, c] {
      for (int r = 0; r < 10; ++r) {
        auto resp = ParseHttpResponse(BlockingFetch(port, request));
        if (!resp.ok() || resp->status != 200 ||
            resp->body != ref->body) {
          ++mismatches[c];
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  for (int c = 0; c < 6; ++c) EXPECT_EQ(mismatches[c], 0) << "client " << c;

  server.Stop();
  pool.Shutdown();
}

TEST(ServeConcurrencyTest, StopWhileClientsInFlight) {
  rdf::TripleStore store = MakeStore();
  Frontend frontend(&store, FrontendOptions());
  exec::ThreadPool pool(3);
  Server::Options sopts;
  sopts.port = 0;
  sopts.num_workers = 2;
  Server server(&frontend, &pool, sopts);
  LODVIZ_CHECK_OK(server.Start());
  const int port = server.port();

  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([port] {
      for (int r = 0; r < 5; ++r) {
        // Responses may be complete, refused, or cut off mid-stop; the
        // only requirement is no crash, race, or hang.
        BlockingFetch(port,
                      "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
      }
    });
  }
  server.Stop();
  for (std::thread& t : clients) t.join();
  pool.Shutdown();
}

TEST(ServeConcurrencyTest, RestartAfterStop) {
  rdf::TripleStore store = MakeStore();
  Frontend frontend(&store, FrontendOptions());
  exec::ThreadPool pool(3);
  for (int round = 0; round < 2; ++round) {
    Server::Options sopts;
    sopts.port = 0;
    sopts.num_workers = 2;
    Server server(&frontend, &pool, sopts);
    LODVIZ_CHECK_OK(server.Start());
    auto resp = ParseHttpResponse(BlockingFetch(
        server.port(), "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"));
    ASSERT_TRUE(resp.ok());
    EXPECT_EQ(resp->status, 200);
    server.Stop();
  }
  pool.Shutdown();
}

TEST(ServeHostileTest, OversizedDeclaredBodyIs413BeforeTheBodyArrives) {
  // The client sends only a head that declares 2 MiB (the cap is 1 MiB)
  // and keeps its side open: the 413 must come from the head alone, not
  // after recv_timeout_ms of waiting for a body that never comes.
  rdf::TripleStore store = MakeStore();
  Frontend frontend(&store, FrontendOptions());
  exec::ThreadPool pool(3);
  Server::Options sopts;
  sopts.port = 0;
  sopts.num_workers = 2;
  Server server(&frontend, &pool, sopts);
  LODVIZ_CHECK_OK(server.Start());
  Stopwatch sw;
  auto resp = ParseHttpResponse(BlockingFetch(
      server.port(),
      "POST /sparql HTTP/1.1\r\nHost: x\r\n"
      "Content-Type: application/sparql-query\r\n"
      "Content-Length: 2097152\r\n\r\n"));
  const double elapsed_ms = sw.ElapsedMillis();
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->status, 413);
  EXPECT_LT(elapsed_ms, sopts.recv_timeout_ms / 5.0);
  server.Stop();
  pool.Shutdown();
}

}  // namespace
}  // namespace lodviz::serve
