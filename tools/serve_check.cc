// serve_check: end-to-end gate for the SPARQL serving layer (check.sh
// gate 6). Starts a real server on an ephemeral port, then asserts that
//
//   1. every query answered over HTTP is BIT-IDENTICAL to serializing a
//      direct QueryEngine execution of the same query (cold plan cache),
//   2. a second pass (warm cache, X-Plan-Cache: hit) is bit-identical to
//      the cold pass — a cached plan must never change an answer,
//   3. concurrent clients hammering the same mix all get those same
//      bytes, and
//   4. the plan cache actually served hits (hit counter advanced).
//
// Exits 0 on success; prints the first divergence and exits 1 otherwise.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "exec/thread_pool.h"
#include "obs/metrics.h"
#include "serve/http.h"
#include "serve/serialize.h"
#include "serve/server.h"

namespace {

using namespace lodviz;

/// One-shot HTTP client: connect, send, read to EOF (the server closes).
std::string Fetch(int port, const std::string& request) {
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
  char chunk[4096];
  while (true) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    response.append(chunk, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string PercentEncode(const std::string& s) {
  static const char* hex = "0123456789ABCDEF";
  std::string out;
  for (unsigned char c : s) {
    if (std::isalnum(c) || c == '-' || c == '_' || c == '.' || c == '~') {
      out.push_back(static_cast<char>(c));
    } else {
      out.push_back('%');
      out.push_back(hex[c >> 4]);
      out.push_back(hex[c & 0xF]);
    }
  }
  return out;
}

std::string SparqlGet(int port, const std::string& query,
                      const std::string& format) {
  std::string req = "GET /sparql?query=" + PercentEncode(query) +
                    "&format=" + format + " HTTP/1.1\r\nHost: x\r\n\r\n";
  return Fetch(port, req);
}

int fail(const std::string& what) {
  std::cerr << "serve_check FAILED: " << what << "\n";
  return 1;
}

}  // namespace

int main() {
  core::Engine engine;
  workload::SyntheticLodOptions synth;
  synth.num_entities = 2000;
  synth.seed = 7;
  engine.LoadSynthetic(synth);

  // A mix covering the planner paths the cache must not perturb: BGP
  // joins, FILTER, OPTIONAL (with a FILTER pushed below it), ORDER BY +
  // LIMIT, aggregation, ASK.
  const std::vector<std::string> queries = {
      "SELECT ?s ?p ?o WHERE { ?s ?p ?o } LIMIT 25",
      "PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>\n"
      "SELECT ?s ?label WHERE { ?s rdfs:label ?label } ORDER BY ?label "
      "LIMIT 20",
      "PREFIX lod: <http://lod.example/ontology/>\n"
      "SELECT ?s ?age WHERE { ?s lod:age ?age . FILTER(?age > 50) } "
      "ORDER BY DESC(?age) ?s LIMIT 30",
      "PREFIX lod: <http://lod.example/ontology/>\n"
      "PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>\n"
      "SELECT ?s ?label WHERE { ?s lod:age ?a . "
      "OPTIONAL { ?s rdfs:label ?label } } ORDER BY ?s LIMIT 15",
      "PREFIX lod: <http://lod.example/ontology/>\n"
      "PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>\n"
      "SELECT ?s ?label WHERE { ?s lod:age ?a . "
      "OPTIONAL { ?s rdfs:label ?label } FILTER(?a < 20) } "
      "ORDER BY ?s LIMIT 15",
      "PREFIX lod: <http://lod.example/ontology/>\n"
      "SELECT ?cat (COUNT(?s) AS ?n) WHERE { ?s lod:category ?cat } "
      "GROUP BY ?cat ORDER BY DESC(?n) ?cat",
      "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\n"
      "ASK { ?s rdf:type ?t }",
  };

  // Direct (in-process, no server, no cache) expected bytes per query,
  // in both formats.
  std::vector<std::string> expect_json;
  std::vector<std::string> expect_tsv;
  for (const std::string& q : queries) {
    Result<sparql::ResultTable> direct = engine.Query(q);
    if (!direct.ok()) {
      return fail("direct execution of [" + q +
                  "]: " + direct.status().ToString());
    }
    const bool is_ask = q.rfind("PREFIX rdf:", 0) == 0;
    expect_json.push_back(serve::ResultTableJson(direct.ValueOrDie(), is_ask));
    expect_tsv.push_back(serve::ResultTableTsv(direct.ValueOrDie(), is_ask));
  }

  auto frontend = engine.MakeFrontend(serve::FrontendOptions());
  if (!frontend.ok()) return fail(frontend.status().ToString());

  exec::ThreadPool pool(6);
  serve::Server::Options sopts;
  sopts.port = 0;  // ephemeral
  sopts.num_workers = 4;
  serve::Server server(frontend.ValueOrDie().get(), &pool, sopts);
  Status started = server.Start();
  if (!started.ok()) return fail(started.ToString());
  const int port = server.port();

  obs::Counter& hits =
      obs::MetricRegistry::Global().GetCounter("serve.plan_cache.hits");
  const uint64_t hits_before = hits.value();

  // Pass 1 (cold cache) and pass 2 (warm cache): every body must equal
  // the direct bytes, and the warm pass must be served from the cache.
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t i = 0; i < queries.size(); ++i) {
      for (const char* format : {"json", "tsv"}) {
        const std::string raw = SparqlGet(port, queries[i], format);
        Result<serve::HttpResponse> resp = serve::ParseHttpResponse(raw);
        if (!resp.ok()) {
          return fail("unparseable response for query " + std::to_string(i));
        }
        if (resp->status != 200) {
          return fail("query " + std::to_string(i) + " (" + format +
                      ") returned " + std::to_string(resp->status) + ": " +
                      resp->body);
        }
        const std::string& expected = std::strcmp(format, "json") == 0
                                          ? expect_json[i]
                                          : expect_tsv[i];
        if (resp->body != expected) {
          return fail("query " + std::to_string(i) + " (" + format +
                      ") pass " + std::to_string(pass) +
                      " diverged from direct execution:\n--- direct ---\n" +
                      expected + "\n--- served ---\n" + resp->body);
        }
        auto cache = resp->headers.find("x-plan-cache");
        if (pass == 1 && std::strcmp(format, "json") == 0 &&
            (cache == resp->headers.end() || cache->second != "hit")) {
          return fail("query " + std::to_string(i) +
                      " not served from plan cache on the warm pass");
        }
      }
    }
  }

  // Concurrent clients: same mix, every response still bit-identical.
  // (std::thread is fine here: serve_check is a tool-side HTTP client,
  // and the pool threads are all busy being the server.)
  const int kClients = 8;
  const int kRequestsPerClient = 12;
  std::vector<std::string> errors(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int r = 0; r < kRequestsPerClient; ++r) {
        const size_t i = static_cast<size_t>(c + r) % queries.size();
        const std::string raw = SparqlGet(port, queries[i], "json");
        Result<serve::HttpResponse> resp = serve::ParseHttpResponse(raw);
        if (!resp.ok() || resp->status != 200 ||
            resp->body != expect_json[i]) {
          errors[c] = "client " + std::to_string(c) + " request " +
                      std::to_string(r) + " diverged (query " +
                      std::to_string(i) + ")";
          return;
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  for (const std::string& e : errors) {
    if (!e.empty()) return fail(e);
  }

  if (hits.value() <= hits_before) {
    return fail("plan cache recorded no hits across warm + concurrent runs");
  }

  server.Stop();
  pool.Shutdown();
  std::cout << "serve_check OK: " << queries.size() << " queries x 2 formats, "
            << "cold == warm == direct, " << kClients << " x "
            << kRequestsPerClient << " concurrent requests bit-identical, "
            << (hits.value() - hits_before) << " plan-cache hits\n";
  return 0;
}
