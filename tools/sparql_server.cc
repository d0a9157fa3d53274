// sparql_server: serve a dataset over the SPARQL protocol.
//
// Loads N-Triples from a file (or generates a synthetic WoD dataset),
// builds a core::Engine + serve::Frontend, and runs serve::Server on the
// shared exec::ThreadPool until stdin closes (Ctrl-D) or the process is
// signalled.
//
//   $ ./sparql_server --port 8080 --data dataset.nt
//   $ ./sparql_server --synthetic 20000 --workers 8
//   $ curl 'http://127.0.0.1:8080/sparql?query=SELECT%20*%20WHERE%20%7B%3Fs%20%3Fp%20%3Fo%7D%20LIMIT%205'
//
// Flags:
//   --port N           listen port on 127.0.0.1 (default 8080; 0 = ephemeral)
//   --data FILE        N-Triples file to load
//   --synthetic N      generate N synthetic entities instead (default 5000
//                      when no --data is given)
//   --workers N        server worker tasks (default 4)
//   --max-concurrent N admission-control limit (default 16)
//   --cache N          plan-cache capacity (default 128)
//   --time-budget-ms N per-query execution time budget (default off)
//   --max-rows N       per-query intermediate-row budget (default off)

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include <fstream>
#include <iostream>
#include <sstream>

#include "core/engine.h"
#include "exec/thread_pool.h"
#include "serve/server.h"

namespace {

int64_t FlagValue(int argc, char** argv, const char* name, int64_t fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return std::atoll(argv[i + 1]);
  }
  return fallback;
}

const char* FlagText(int argc, char** argv, const char* name) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  }
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lodviz;

  core::Engine engine;
  const char* data = FlagText(argc, argv, "--data");
  if (data != nullptr) {
    std::ifstream in(data);
    if (!in) {
      std::cerr << "cannot open " << data << "\n";
      return 1;
    }
    std::ostringstream doc;
    doc << in.rdbuf();
    Status loaded = engine.LoadNTriples(doc.str());
    if (!loaded.ok()) {
      std::cerr << "load failed: " << loaded.ToString() << "\n";
      return 1;
    }
  } else {
    workload::SyntheticLodOptions synth;
    synth.num_entities = static_cast<uint64_t>(
        FlagValue(argc, argv, "--synthetic", 5000));
    engine.LoadSynthetic(synth);
  }
  std::cout << "loaded " << engine.store().size() << " triples\n";

  serve::FrontendOptions fopts;
  fopts.max_concurrent =
      static_cast<size_t>(FlagValue(argc, argv, "--max-concurrent", 16));
  fopts.plan_cache_capacity =
      static_cast<size_t>(FlagValue(argc, argv, "--cache", 128));
  const int64_t budget_ms = FlagValue(argc, argv, "--time-budget-ms", -1);
  if (budget_ms >= 0) fopts.budget.time_budget_us = budget_ms * 1000;
  fopts.budget.max_intermediate_rows =
      static_cast<uint64_t>(FlagValue(argc, argv, "--max-rows", 0));

  std::unique_ptr<serve::Frontend> frontend = engine.MakeFrontend(fopts);

  const size_t workers =
      static_cast<size_t>(FlagValue(argc, argv, "--workers", 4));
  exec::ThreadPool pool(workers + 1);  // acceptor + workers

  serve::Server::Options sopts;
  sopts.port = static_cast<int>(FlagValue(argc, argv, "--port", 8080));
  sopts.num_workers = workers;
  serve::Server server(frontend.get(), &pool, sopts);
  Status started = server.Start();
  if (!started.ok()) {
    std::cerr << "start failed: " << started.ToString() << "\n";
    return 1;
  }
  std::cout << "serving on http://127.0.0.1:" << server.port()
            << "/sparql  (metrics at /metrics; Ctrl-D stops)\n";

  // Park the main thread until stdin closes; the pool runs the server.
  std::string line;
  while (std::getline(std::cin, line)) {
  }
  server.Stop();
  pool.Shutdown();
  std::cout << "stopped\n";
  return 0;
}
