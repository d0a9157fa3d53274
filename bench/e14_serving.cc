// E14 — the SPARQL serving layer under load: sustained throughput and
// tail latency of the HTTP front door at 1, 4, and 16 simulated clients,
// the value of the fingerprint-keyed plan cache, and the
// warm-equals-cold answer-stability contract. The survey's premise is
// interactive exploration over live endpoints; this measures whether the
// serving substrate holds up when many explorers hit it at once.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/stopwatch.h"
#include "common/table_printer.h"
#include "core/engine.h"
#include "exec/thread_pool.h"
#include "obs/metrics.h"
#include "serve/http.h"
#include "serve/server.h"

namespace lodviz {
namespace {

// The client mix: the same exploration-shaped queries e10 uses, now
// arriving over the wire.
const char* kQueries[] = {
    "SELECT ?s ?age WHERE { "
    "?s <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> "
    "<http://lod.example/ontology/Person> ; "
    "<http://lod.example/ontology/age> ?age . FILTER(?age > 60) } "
    "ORDER BY DESC(?age) LIMIT 100",
    "SELECT ?cat (COUNT(*) AS ?n) WHERE { "
    "?s <http://lod.example/ontology/category> ?cat } GROUP BY ?cat "
    "ORDER BY DESC(?n) ?cat",
    "SELECT ?s ?label WHERE { ?s <http://lod.example/ontology/age> ?age . "
    "OPTIONAL { ?s <http://www.w3.org/2000/01/rdf-schema#label> ?label . } "
    "FILTER(?age < 20) } ORDER BY ?s LIMIT 200",
    "ASK { ?s <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> "
    "<http://lod.example/ontology/Place> }",
};
constexpr size_t kNumQueries = sizeof(kQueries) / sizeof(kQueries[0]);

std::string PercentEncode(const std::string& s) {
  static const char* hex = "0123456789ABCDEF";
  std::string out;
  for (unsigned char c : s) {
    if (isalnum(c) || c == '-' || c == '_' || c == '.' || c == '~') {
      out.push_back(static_cast<char>(c));
    } else {
      out.push_back('%');
      out.push_back(hex[c >> 4]);
      out.push_back(hex[c & 0xF]);
    }
  }
  return out;
}

/// One-shot HTTP exchange (connect, send, read to close).
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
  char chunk[8192];
  while (true) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    response.append(chunk, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

struct LoadResult {
  double qps = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  size_t errors = 0;
};

/// Closed-loop load: `clients` threads each issue `per_client` requests
/// back-to-back; per-request latency is client-observed wall time.
LoadResult RunLoad(int port, size_t clients, size_t per_client,
                   const std::vector<std::string>& requests,
                   const std::vector<std::string>& expected_bodies) {
  std::vector<std::vector<double>> latencies(clients);
  std::atomic<size_t> errors{0};
  Stopwatch wall;
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      latencies[c].reserve(per_client);
      for (size_t r = 0; r < per_client; ++r) {
        const size_t i = (c + r) % requests.size();
        Stopwatch sw;
        const std::string raw = Fetch(port, requests[i]);
        latencies[c].push_back(sw.ElapsedMillis());
        Result<serve::HttpResponse> resp = serve::ParseHttpResponse(raw);
        if (!resp.ok() || resp.ValueOrDie().status != 200 ||
            resp.ValueOrDie().body != expected_bodies[i]) {
          errors.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double elapsed_s = wall.ElapsedMillis() / 1000.0;

  std::vector<double> all;
  for (const auto& v : latencies) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());
  LoadResult out;
  out.qps = elapsed_s > 0 ? static_cast<double>(all.size()) / elapsed_s : 0;
  if (!all.empty()) {
    out.p50_ms = all[all.size() / 2];
    out.p99_ms = all[std::min(all.size() - 1,
                              static_cast<size_t>(all.size() * 0.99))];
  }
  out.errors = errors.load();
  return out;
}

void Run() {
  bench::PrintHeader(
      "E14", "SPARQL serving layer under concurrent load",
      "the plan-cached, admission-controlled front door sustains "
      "multi-client query traffic with stable answers (warm == cold) and "
      "bounded tail latency");
  bench::Telemetry telemetry("e14_serving");

  core::Engine engine;
  workload::SyntheticLodOptions synth;
  synth.num_entities = 4000;
  synth.seed = 11;
  Stopwatch load_sw;
  engine.LoadSynthetic(synth);
  telemetry.RecordPhase("load", load_sw.ElapsedMillis());
  std::cout << "dataset: " << engine.store().size() << " triples\n\n";

  serve::FrontendOptions fopts;
  fopts.max_concurrent = 32;
  std::unique_ptr<serve::Frontend> frontend = engine.MakeFrontend(fopts);

  exec::ThreadPool pool(10);
  serve::Server::Options sopts;
  sopts.port = 0;
  sopts.num_workers = 8;
  sopts.queue_capacity = 256;
  serve::Server server(frontend.get(), &pool, sopts);
  LODVIZ_CHECK_OK(server.Start());
  const int port = server.port();

  std::vector<std::string> requests;
  for (size_t i = 0; i < kNumQueries; ++i) {
    requests.push_back("GET /sparql?query=" + PercentEncode(kQueries[i]) +
                       " HTTP/1.1\r\nHost: bench\r\n\r\n");
  }

  // Cold pass: first execution of each query plans it; the bodies become
  // the reference every later (cached-plan) answer must match byte for
  // byte — the answer-stability contract gate 6 also enforces.
  std::vector<std::string> expected;
  for (const std::string& req : requests) {
    Result<serve::HttpResponse> cold = serve::ParseHttpResponse(
        Fetch(port, req));
    LODVIZ_CHECK_OK(cold);
    LODVIZ_CHECK(cold.ValueOrDie().status == 200)
        << "cold request failed: " << cold.ValueOrDie().body;
    expected.push_back(cold.ValueOrDie().body);
  }
  for (size_t i = 0; i < requests.size(); ++i) {
    Result<serve::HttpResponse> warm = serve::ParseHttpResponse(
        Fetch(port, requests[i]));
    LODVIZ_CHECK_OK(warm);
    LODVIZ_CHECK(warm.ValueOrDie().body == expected[i])
        << "warm-cache answer diverged from cold for query " << i;
  }
  std::cout << "warm == cold: all " << requests.size()
            << " query bodies bit-identical\n\n";

  obs::MetricRegistry& reg = obs::MetricRegistry::Global();
  obs::Counter& cache_hits = reg.GetCounter("serve.plan_cache.hits");
  obs::Counter& cache_misses = reg.GetCounter("serve.plan_cache.misses");
  obs::Counter& shed = reg.GetCounter("serve.shed");

  TablePrinter table({"clients", "requests", "qps", "p50 ms", "p99 ms",
                      "errors"});
  const size_t kPerClient = 60;
  for (size_t clients : {1u, 4u, 16u}) {
    const uint64_t hits0 = cache_hits.value();
    Stopwatch phase_sw;
    LoadResult r = RunLoad(port, clients, kPerClient, requests, expected);
    const std::string tag = "clients" + std::to_string(clients);
    telemetry.RecordPhase(tag + "_run", phase_sw.ElapsedMillis());
    // qps/p99 ride along in the phases map (the JSON consumer reads them
    // by name; units are in the key, not ms).
    telemetry.RecordPhase(tag + "_qps", r.qps);
    telemetry.RecordPhase(tag + "_p50_ms", r.p50_ms);
    telemetry.RecordPhase(tag + "_p99_ms", r.p99_ms);
    table.AddRow({std::to_string(clients),
                  std::to_string(clients * kPerClient), bench::Num(r.qps, 0),
                  bench::Ms(r.p50_ms), bench::Ms(r.p99_ms),
                  std::to_string(r.errors)});
    LODVIZ_CHECK(r.errors == 0)
        << "divergent or failed responses under " << clients << " clients";
    LODVIZ_CHECK(cache_hits.value() > hits0)
        << "plan cache served no hits during the load phase";
  }
  std::cout << table.ToString() << "\n";

  std::cout << "plan cache: " << cache_hits.value() << " hits, "
            << cache_misses.value() << " misses ("
            << bench::Pct(static_cast<double>(cache_hits.value()) /
                          std::max<uint64_t>(
                              1, cache_hits.value() + cache_misses.value()))
            << " hit rate); load-shed refusals: " << shed.value() << "\n";

  server.Stop();
  pool.Shutdown();
}

}  // namespace
}  // namespace lodviz

int main() {
  lodviz::Run();
  return 0;
}
