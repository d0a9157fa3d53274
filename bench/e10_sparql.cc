// E10 — the SPARQL substrate at scale: query latency across dataset sizes
// and the effect of selectivity-based join ordering (the kind of
// database-side machinery the survey says WoD visualization systems must
// sit on top of).

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <mutex>
#include <unistd.h>

#include "bench_util.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "exec/parallel.h"
#include "rdf/triple_store.h"
#include "sparql/engine.h"
#include "storage/disk_source_adapter.h"
#include "storage/disk_triple_store.h"
#include "workload/synthetic_lod.h"

namespace lodviz {
namespace {

const char* kQueries[] = {
    // Q1: star query on one entity type with a numeric filter.
    "SELECT ?s ?age WHERE { "
    "?s <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> "
    "<http://lod.example/ontology/Person> ; "
    "<http://lod.example/ontology/age> ?age . FILTER(?age > 60) }",
    // Q2: two-hop path.
    "SELECT ?a ?c WHERE { ?a <http://lod.example/ontology/knows> ?b . "
    "?b <http://lod.example/ontology/knows> ?c . } LIMIT 5000",
    // Q3: group-by aggregate over categories.
    "SELECT ?cat (COUNT(*) AS ?n) (AVG(?age) AS ?avg) WHERE { "
    "?s <http://lod.example/ontology/category> ?cat ; "
    "<http://lod.example/ontology/age> ?age . } GROUP BY ?cat",
    // Q4: optional + keyword-ish filter.
    "SELECT ?s ?label WHERE { ?s <http://lod.example/ontology/age> ?age . "
    "OPTIONAL { ?s <http://www.w3.org/2000/01/rdf-schema#label> ?label . } "
    "FILTER(?age < 20) } LIMIT 2000",
};

// Bench-local reconstruction of the pre-striping storage behavior: one
// mutex around every scan and Count, exactly how DiskSourceAdapter used to
// serialize concurrent BGP probes before the buffer pool was striped.
// Part D measures what removing it bought.
class SerializedSource : public rdf::TripleSource {
 public:
  explicit SerializedSource(const rdf::TripleSource* inner) : inner_(inner) {}

  void ScanRuns(const rdf::TriplePattern& pattern,
                const ScanRunFn& fn) const override {
    std::lock_guard<std::mutex> lock(mu_);
    inner_->ScanRuns(pattern, fn);
  }

  [[nodiscard]] uint64_t Count(const rdf::TriplePattern& pattern)
      const override {
    std::lock_guard<std::mutex> lock(mu_);
    return inner_->Count(pattern);
  }

  const rdf::Dictionary& dict() const override { return inner_->dict(); }

  [[nodiscard]] uint64_t size() const override { return inner_->size(); }

  [[nodiscard]] uint64_t PredicateCount(rdf::TermId p) const override {
    return inner_->PredicateCount(p);
  }

 private:
  const rdf::TripleSource* inner_;
  mutable std::mutex mu_;
};

/// Part F: the serve-mem-views OPTIONAL shape, filtered and without its
/// filter, timed on one thread and on four: the baseline that batched
/// probes and fitted selectivities have to beat. Fails when the rows at
/// one thread and at four differ.
bool RunOptionalPart(bench::Telemetry* telemetry) {
  rdf::TripleStore store;
  workload::SyntheticLodOptions lod;
  lod.num_entities = 4000;
  lod.seed = 3;
  workload::GenerateSyntheticLod(lod, &store);
  store.Compact();
  sparql::QueryEngine engine(&store);

  const std::string head =
      "SELECT ?s ?label WHERE { ?s <http://lod.example/ontology/age> ?age . "
      "OPTIONAL { ?s <http://www.w3.org/2000/01/rdf-schema#label> ?label . } ";
  const std::string tail = "} ORDER BY ?s LIMIT 200";
  struct Shape {
    const char* name;
    const char* phase;
    std::string query;
  } shapes[] = {
      {"filtered", "partF_optional_filtered", head + "FILTER(?age < 20) " + tail},
      {"unfiltered", "partF_optional_unfiltered", head + tail},
  };

  // Median wall time of 21 runs after one warm-up; the rendered rows of
  // the last run come back through `rows`.
  auto median_ms = [&](const std::string& q, std::string* rows) {
    std::vector<double> ms;
    for (int i = 0; i < 22; ++i) {
      Stopwatch sw;
      auto r = engine.ExecuteString(q);
      const double t = sw.ElapsedMillis();
      LODVIZ_CHECK(r.ok()) << r.status().ToString();
      if (i > 0) ms.push_back(t);
      *rows = r->ToString(r->num_rows());
    }
    std::sort(ms.begin(), ms.end());
    return ms[ms.size() / 2];
  };

  TablePrinter table({"query", "1 thread ms", "4 threads ms", "identical"});
  bool all_identical = true;
  for (const Shape& shape : shapes) {
    std::string serial_rows, parallel_rows;
    exec::SetThreads(1);
    const double serial_ms = median_ms(shape.query, &serial_rows);
    exec::SetThreads(4);
    const double parallel_ms = median_ms(shape.query, &parallel_rows);
    const bool identical = parallel_rows == serial_rows;
    all_identical = all_identical && identical;
    table.AddRow({shape.name, bench::Ms(serial_ms), bench::Ms(parallel_ms),
                  identical ? "yes" : "NO"});
    telemetry->RecordPhase(std::string(shape.phase) + "_ms", serial_ms);
    telemetry->RecordPhase(std::string(shape.phase) + "_4t_ms", parallel_ms);
  }
  exec::SetThreads(0);
  table.Print(std::cout);
  if (!all_identical) {
    std::cerr << "OPTIONAL rows diverge between 1 and 4 threads\n";
    return false;
  }
  std::cout << "\nShape check: each OPTIONAL is one left-outer join over all "
               "of its parents, with the same rows at any thread count.\n";
  return true;
}

int Run() {
  bench::Telemetry telemetry("e10_sparql");
  bench::PrintHeader(
      "E10", "SPARQL engine scaling & join ordering",
      "index nested-loop BGP evaluation with selectivity ordering keeps "
      "exploration queries interactive as data grows");

  std::cout << "Part A — latency vs dataset size (optimized ordering):\n";
  TablePrinter table({"entities", "triples", "Q1 ms", "Q2 ms", "Q3 ms",
                      "Q4 ms"});
  for (uint64_t entities : {10000ul, 40000ul, 160000ul}) {
    rdf::TripleStore store;
    workload::SyntheticLodOptions lod;
    lod.num_entities = entities;
    lod.seed = 3;
    workload::GenerateSyntheticLod(lod, &store);
    store.Compact();
    sparql::QueryEngine engine(&store);

    std::vector<std::string> row = {FormatCount(entities),
                                    FormatCount(store.size())};
    for (const char* q : kQueries) {
      Stopwatch sw;
      auto result = engine.ExecuteString(q);
      double ms = sw.ElapsedMillis();
      if (!result.ok()) {
        std::cerr << "query failed: " << result.status().ToString() << "\n";
        return 1;
      }
      row.push_back(bench::Ms(ms));
    }
    table.AddRow(std::move(row));
  }
  table.Print(std::cout);

  std::cout << "\nPart B — join ordering effect (40k entities):\n";
  rdf::TripleStore store;
  workload::SyntheticLodOptions lod;
  lod.num_entities = 40000;
  lod.seed = 3;
  workload::GenerateSyntheticLod(lod, &store);
  store.Compact();

  sparql::QueryEngine::Options naive_opts;
  naive_opts.optimize_join_order = false;
  sparql::QueryEngine optimized(&store);
  sparql::QueryEngine naive(&store, naive_opts);

  // A query written in a bad textual order: the most selective pattern
  // (the FILTERed age) comes last.
  const char* bad_order =
      "SELECT ?s WHERE { "
      "?s <http://lod.example/ontology/knows> ?o . "
      "?s <http://lod.example/ontology/category> "
      "<http://lod.example/category/0> . "
      "?s <http://lod.example/ontology/age> ?age . FILTER(?age > 75) }";

  TablePrinter join({"engine", "ms", "intermediate rows", "results"});
  struct Runner {
    sparql::QueryEngine* engine;
    const char* name;
  };
  for (const Runner& r : {Runner{&naive, "textual order"},
                          Runner{&optimized, "selectivity order"}}) {
    Stopwatch sw;
    sparql::QueryStats stats;
    auto result = r.engine->ExecuteString(bad_order, &stats);
    double ms = sw.ElapsedMillis();
    if (!result.ok()) return 1;
    join.AddRow({r.name, bench::Ms(ms), FormatCount(stats.intermediate_rows),
                 FormatCount(result->num_rows())});
  }
  join.Print(std::cout);
  std::cout << "\nShape check: the optimizer evaluates the selective "
               "pattern first, shrinking intermediate results and latency; "
               "both orders return identical answers.\n";

  std::cout << "\nPart C — backend comparison (40k entities, same queries "
               "over memory vs disk TripleSource):\n";
  const std::string disk_path =
      "/tmp/lodviz_e10_backend_" + std::to_string(::getpid()) + ".db";
  std::vector<rdf::Triple> triples;
  store.Scan({}, [&](const rdf::Triple& t) {
    triples.push_back(t);
    return true;
  });
  auto disk = bench::Unwrap(storage::DiskTripleStore::Create(disk_path, 256));
  LODVIZ_CHECK_OK(disk->BulkLoad(std::move(triples)));
  storage::DiskSourceAdapter adapter(disk.get(), &store.dict());
  sparql::QueryEngine disk_engine(&adapter);

  TablePrinter backends({"query", "mem ms", "mem rows/s", "disk ms",
                         "disk rows/s", "pool hit rate", "identical"});
  for (size_t qi = 0; qi < std::size(kQueries); ++qi) {
    const char* q = kQueries[qi];
    const std::string label = std::string("q") + std::to_string(qi + 1);

    Stopwatch mem_sw;
    sparql::QueryStats mem_stats;
    auto mem_result = optimized.ExecuteString(q, &mem_stats);
    double mem_ms = mem_sw.ElapsedMillis();
    if (!mem_result.ok()) return 1;

    disk->pool().ResetCounters();
    Stopwatch disk_sw;
    sparql::QueryStats disk_stats;
    auto disk_result = disk_engine.ExecuteString(q, &disk_stats);
    double disk_ms = disk_sw.ElapsedMillis();
    if (!disk_result.ok()) return 1;

    // rows/s counts the rows the executor materialized (intermediate +
    // final): the substrate throughput, not just the projected output.
    double mem_rows_s = mem_ms > 0
                            ? static_cast<double>(mem_stats.intermediate_rows) /
                                  (mem_ms / 1e3)
                            : 0;
    double disk_rows_s =
        disk_ms > 0 ? static_cast<double>(disk_stats.intermediate_rows) /
                          (disk_ms / 1e3)
                    : 0;
    double hit_rate = disk->pool().HitRate();
    bool identical = mem_result->ToString(mem_result->num_rows()) ==
                     disk_result->ToString(disk_result->num_rows());
    backends.AddRow({label, bench::Ms(mem_ms), FormatCount(static_cast<uint64_t>(mem_rows_s)),
                     bench::Ms(disk_ms), FormatCount(static_cast<uint64_t>(disk_rows_s)),
                     bench::Pct(hit_rate), identical ? "yes" : "NO"});
    telemetry.RecordPhase("mem_" + label + "_ms", mem_ms);
    telemetry.RecordPhase("mem_" + label + "_rows_per_s", mem_rows_s);
    telemetry.RecordPhase("disk_" + label + "_ms", disk_ms);
    telemetry.RecordPhase("disk_" + label + "_rows_per_s", disk_rows_s);
    telemetry.RecordPhase("disk_" + label + "_pool_hit_rate", hit_rate);
    if (!identical) {
      std::cerr << "backend divergence on " << label << "\n";
      std::remove(disk_path.c_str());
      return 1;
    }
  }
  backends.Print(std::cout);
  std::cout << "\nShape check: both backends return bit-identical tables; "
               "the disk backend pays buffer-pool traffic, amortized by its "
               "hit rate.\n";

  std::cout << "\nPart D — disk BGP thread scaling: lock-striped buffer "
               "pool vs a single-mutex source (how the pre-striping "
               "adapter serialized every scan):\n";
  // Nested-loop joins do one index scan per probe row, so they put the
  // most concurrent pressure on the storage layer — exactly what the
  // striping is for.
  SerializedSource serialized(&adapter);
  sparql::QueryEngine serialized_engine(&serialized);
  const char* scaling_q = kQueries[1];  // two-hop path: probe-heavy BGP

  TablePrinter scaling({"source", "threads", "ms"});
  double phase_ms[2][2] = {};
  struct Src {
    sparql::QueryEngine* engine;
    const char* name;
  } sources[] = {{&serialized_engine, "serialized"},
                 {&disk_engine, "striped"}};
  for (int si = 0; si < 2; ++si) {
    for (int ti = 0; ti < 2; ++ti) {
      const int threads = ti == 0 ? 1 : 4;
      exec::SetThreads(threads);
      // Warm the pool so every phase measures in-cache concurrency, not
      // first-touch I/O.
      (void)sources[si].engine->ExecuteString(scaling_q);
      Stopwatch sw;
      auto r = sources[si].engine->ExecuteString(scaling_q);
      double ms = sw.ElapsedMillis();
      if (!r.ok()) {
        std::remove(disk_path.c_str());
        return 1;
      }
      phase_ms[si][ti] = ms;
      const std::string phase = std::string("disk_bgp_") + sources[si].name +
                                "_" + std::to_string(threads) + "t_ms";
      telemetry.RecordPhase(phase, ms);
      scaling.AddRow({sources[si].name, std::to_string(threads),
                      bench::Ms(ms)});
    }
  }
  exec::SetThreads(0);
  const double speedup =
      phase_ms[1][1] > 0 ? phase_ms[0][1] / phase_ms[1][1] : 0;
  telemetry.RecordPhase("disk_bgp_4t_striped_speedup", speedup);
  scaling.Print(std::cout);
  char ratio[32];
  std::snprintf(ratio, sizeof(ratio), "%.2f", speedup);
  std::cout << "\nShape check: at 4 threads the striped pool should beat "
               "the single-mutex source (ratio " << ratio
            << "x); on a single-core host both flatline and the ratio "
               "hovers near 1 — see EXPERIMENTS.md E10 for the caveat.\n";

  std::remove(disk_path.c_str());

  std::cout << "\nPart F — OPTIONAL as a left-outer join (4k entities, "
               "median of 21 runs):\n";
  if (!RunOptionalPart(&telemetry)) return 1;

  std::cout << "\nPart G — compressed disk leaves (same data, Q2 over a "
               "256-page pool):\n";
  std::vector<rdf::Triple> leaf_triples;
  store.Scan({}, [&](const rdf::Triple& t) {
    leaf_triples.push_back(t);
    return true;
  });
  const std::string mem_q2 = [&] {
    auto r = optimized.ExecuteString(kQueries[1]);
    LODVIZ_CHECK(r.ok()) << r.status().ToString();
    return r->ToString(r->num_rows());
  }();
  const std::string leaf_path =
      "/tmp/lodviz_e10_leaf_" + std::to_string(::getpid()) + ".db";
  auto leaf_store =
      bench::Unwrap(storage::DiskTripleStore::Create(leaf_path, 256));
  LODVIZ_CHECK_OK(leaf_store->BulkLoad(leaf_triples));
  storage::DiskSourceAdapter leaf_adapter(leaf_store.get(), &store.dict());
  sparql::QueryEngine leaf_engine(&leaf_adapter);

  const uint64_t leaf_pages = leaf_store->file().num_pages();
  const double ppt = static_cast<double>(leaf_pages) /
                     static_cast<double>(leaf_store->size());
  // Reference: the leaf pages alone that 24-byte Key128+value entries
  // would need for the two triple indexes, at (8192 - 16) / 24 - 1 = 339
  // entries per leaf (a fixed-entry bulk loader leaving room for one
  // insert). Internal nodes and the aggregated indexes would only add to
  // it, so the ratio below understates the real saving.
  const uint64_t fixed_per_leaf = (storage::kPageSize - 16) / 24 - 1;
  const uint64_t fixed_pages =
      2 * ((leaf_store->size() + fixed_per_leaf - 1) / fixed_per_leaf);
  const double page_ratio =
      leaf_pages > 0 ? static_cast<double>(fixed_pages) /
                           static_cast<double>(leaf_pages)
                     : 0;

  (void)leaf_engine.ExecuteString(kQueries[1]);  // warm the pool
  leaf_store->pool().ResetCounters();
  Stopwatch leaf_sw;
  auto leaf_r = leaf_engine.ExecuteString(kQueries[1]);
  const double leaf_ms = leaf_sw.ElapsedMillis();
  std::remove(leaf_path.c_str());
  if (!leaf_r.ok()) return 1;
  const double leaf_hit = leaf_store->pool().HitRate();
  const bool identical = leaf_r->ToString(leaf_r->num_rows()) == mem_q2;

  TablePrinter leaf_table({"pages", "24-byte layout pages", "pages/triple",
                           "Q2 ms", "pool hit rate", "identical"});
  char ppt_text[32];
  std::snprintf(ppt_text, sizeof(ppt_text), "%.4f", ppt);
  leaf_table.AddRow({FormatCount(leaf_pages), FormatCount(fixed_pages),
                     ppt_text, bench::Ms(leaf_ms), bench::Pct(leaf_hit),
                     identical ? "yes" : "NO"});
  telemetry.RecordPhase("partG_pages_per_triple_compressed", ppt);
  telemetry.RecordPhase("partG_disk_bgp_compressed_ms", leaf_ms);
  telemetry.RecordPhase("partG_pool_hit_rate_compressed", leaf_hit);
  telemetry.RecordPhase("partG_pages_ratio_fixed_over_compressed", page_ratio);
  leaf_table.Print(std::cout);
  if (!identical) {
    std::cerr << "disk Q2 diverges from the in-memory answer\n";
    return 1;
  }
  char ratio_text[32];
  std::snprintf(ratio_text, sizeof(ratio_text), "%.2f", page_ratio);
  std::cout << "\nShape check: the disk store serves rows bit-identical to "
               "memory; the compressed layout needs "
            << ratio_text
            << "x fewer pages than the 24-byte entry layout's leaf pages "
               "alone, the same factor of extra triples each buffer-pool "
               "frame caches.\n";
  if (page_ratio < 2.0) {
    std::cerr << "compressed leaves must need >= 2x fewer pages than the "
                 "24-byte layout (measured "
              << ratio_text << "x)\n";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace lodviz

int main() { return lodviz::Run(); }
