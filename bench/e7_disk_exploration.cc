// E7 — out-of-core exploration (Section 4: "systems should be integrated
// with disk structures, retrieving data dynamically during runtime";
// SynopsViz and graphVizdb [22, 23] are the survey's only examples): a
// disk-resident triple store behind a bounded buffer pool answers
// exploration queries with memory capped at the pool size, while the
// load-everything approach grows without bound.

#include <cstdio>
#include <iostream>
#include <sstream>

#include "bench_util.h"
#include "common/check.h"
#include "exec/parallel.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "explore/facets.h"
#include "hier/hetree.h"
#include "rdf/triple_store.h"
#include "sparql/engine.h"
#include "storage/disk_source_adapter.h"
#include "storage/disk_triple_store.h"
#include "unistd.h"
#include "workload/synthetic_lod.h"

namespace lodviz {
namespace {

/// A phase's page file, removed when the phase ends, whether it succeeds
/// or fails. Declare it before the store that writes it, so the store
/// closes first.
class TempPath {
 public:
  explicit TempPath(const std::string& tag)
      : path_("/tmp/lodviz_e7_" + tag + "_" + std::to_string(::getpid()) +
              ".db") {}
  ~TempPath() { std::remove(path_.c_str()); }
  TempPath(const TempPath&) = delete;
  TempPath& operator=(const TempPath&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Every facet, value and count, in the browser's order.
std::string FacetDigest(const std::vector<explore::Facet>& facets) {
  std::string out;
  for (const explore::Facet& f : facets) {
    out += f.label + "{";
    for (const explore::FacetValue& v : f.values) {
      out += v.label + "=" + std::to_string(v.count) + ",";
    }
    out += "}";
  }
  return out;
}

/// Every node's range and statistics, and every leaf's items.
std::string HETreeDigest(const hier::HETree& tree) {
  std::ostringstream out;
  out.precision(17);
  for (hier::HETree::NodeId id = 0; id < tree.materialized_nodes(); ++id) {
    const hier::HETree::Node& n = tree.node(id);
    out << n.lo << ":" << n.hi << ":" << n.first << ":" << n.last << ":"
        << n.stats.sum << ":" << n.stats.variance << ";";
    if (!n.is_leaf) continue;
    for (const hier::Item& item : tree.LeafItems(id)) {
      out << item.value << "@" << item.object << ",";
    }
  }
  return out.str();
}

int Run() {
  bench::Telemetry telemetry("e7_disk_exploration");
  bench::PrintHeader(
      "E7", "Disk-based exploration with bounded memory",
      "a 2 MiB buffer pool explores datasets of any size; in-memory "
      "loading grows linearly and eventually cannot fit");

  const size_t kPoolPages = 256;  // 2 MiB

  TablePrinter table({"entities", "triples", "in-mem bytes",
                      "disk-resident bytes (pool)", "bulk load ms",
                      "100 subject lookups ms", "pool hit rate"});

  for (uint64_t entities : {20000ul, 80000ul, 320000ul}) {
    workload::SyntheticLodOptions lod;
    lod.num_entities = entities;
    lod.seed = 4;
    lod.with_labels = false;  // keep the dictionary small; triples dominate

    rdf::TripleStore mem;
    workload::GenerateSyntheticLod(lod, &mem);
    mem.Compact();

    std::vector<rdf::Triple> triples;
    triples.reserve(mem.size());
    mem.Scan(rdf::TriplePattern(), [&](const rdf::Triple& t) {
      triples.push_back(t);
      return true;
    });

    Stopwatch sw;
    const TempPath file(std::to_string(entities));
    auto disk_r = storage::DiskTripleStore::Create(file.path(), kPoolPages);
    if (!disk_r.ok()) {
      std::cerr << disk_r.status().ToString() << "\n";
      return 1;
    }
    storage::DiskTripleStore& disk = **disk_r;
    if (!disk.BulkLoad(triples).ok()) return 1;
    double load_ms = sw.ElapsedMillis();

    // Exploration: 100 random subject lookups (entity pages).
    Rng rng(9);
    disk.pool().ResetCounters();
    sw.Reset();
    uint64_t touched = 0;
    for (int q = 0; q < 100; ++q) {
      rdf::TermId s = static_cast<rdf::TermId>(1 + rng.Uniform(entities));
      LODVIZ_CHECK_OK(
          disk.ScanRuns({s, rdf::kInvalidTermId, rdf::kInvalidTermId},
                        [&](const rdf::Triple*, size_t n) {
                          touched += n;
                          return true;
                        }));
    }
    double lookup_ms = sw.ElapsedMillis();
    (void)touched;

    table.AddRow({FormatCount(entities), FormatCount(disk.size()),
                  FormatCount(mem.MemoryUsage()),
                  FormatCount(disk.MemoryUsage()), bench::Ms(load_ms),
                  bench::Ms(lookup_ms),
                  bench::Pct(disk.pool().HitRate())});
  }
  table.Print(std::cout);

  std::cout << "\nPool-size sensitivity (100k entities, 100 lookups + 20 "
               "predicate scans, counted after a warm-up pass):\n";
  workload::SyntheticLodOptions lod;
  lod.num_entities = 100000;
  lod.seed = 6;
  lod.with_labels = false;
  rdf::TripleStore mem;
  workload::GenerateSyntheticLod(lod, &mem);
  mem.Compact();
  std::vector<rdf::Triple> triples;
  mem.Scan(rdf::TriplePattern(), [&](const rdf::Triple& t) {
    triples.push_back(t);
    return true;
  });

  TablePrinter pools({"pool pages", "pool MiB", "workload ms", "hit rate",
                      "disk reads"});
  for (size_t pages : {16ul, 64ul, 256ul, 1024ul}) {
    const TempPath file("pool" + std::to_string(pages));
    auto disk_r = storage::DiskTripleStore::Create(file.path(), pages);
    if (!disk_r.ok()) return 1;
    storage::DiskTripleStore& disk = **disk_r;
    if (!disk.BulkLoad(triples).ok()) return 1;

    const auto preds = mem.PredicateCounts();
    auto run_workload = [&] {
      Rng rng(11);
      for (int q = 0; q < 100; ++q) {
        rdf::TermId s = static_cast<rdf::TermId>(1 + rng.Uniform(100000));
        LODVIZ_CHECK_OK(
            disk.Count({s, rdf::kInvalidTermId, rdf::kInvalidTermId}));
      }
      int scans = 0;
      for (const auto& [pred, count] : preds) {
        if (scans++ >= 20) break;
        uint64_t n = 0;
        LODVIZ_CHECK_OK(
            disk.ScanRuns({rdf::kInvalidTermId, pred, rdf::kInvalidTermId},
                          [&](const rdf::Triple*, size_t run) {
                            n += run;
                            return n < 5000;
                          }));
      }
    };
    // The load writes pages straight to the file and leaves the pool cold;
    // a warm-up pass fills it, so the counted pass measures what a pool of
    // this size holds, not first-touch misses.
    run_workload();
    disk.pool().ResetCounters();
    disk.file().ResetCounters();
    Stopwatch sw;
    run_workload();
    double workload_ms = sw.ElapsedMillis();
    pools.AddRow({FormatCount(pages),
                  bench::Num(pages * 8.0 / 1024.0, 2),
                  bench::Ms(workload_ms), bench::Pct(disk.pool().HitRate()),
                  FormatCount(disk.file().reads())});
  }
  pools.Print(std::cout);

  // SPARQL over the TripleSource contract: the same exploration queries
  // against the in-memory store and against a small-pool disk mirror.
  std::cout << "\nSPARQL exploration, memory vs disk backend (100k "
               "entities, 64-page pool):\n";
  const TempPath sparql_file("sparql");
  auto sparql_disk_r = storage::DiskTripleStore::Create(sparql_file.path(), 64);
  if (!sparql_disk_r.ok()) return 1;
  storage::DiskTripleStore& sparql_disk = **sparql_disk_r;
  if (!sparql_disk.BulkLoad(triples).ok()) return 1;
  storage::DiskSourceAdapter adapter(&sparql_disk, &mem.dict());
  sparql::QueryEngine mem_engine(&mem);
  sparql::QueryEngine disk_engine(&adapter);

  const struct {
    const char* label;
    const char* text;
  } kExploreQueries[] = {
      {"facet_count",
       "SELECT ?cat (COUNT(*) AS ?n) WHERE { ?s "
       "<http://lod.example/ontology/category> ?cat . } GROUP BY ?cat"},
      {"filtered_slice",
       "SELECT ?s ?age WHERE { ?s <http://lod.example/ontology/age> ?age . "
       "FILTER(?age > 70) } LIMIT 5000"},
      {"neighborhood",
       "SELECT ?a ?b WHERE { ?a <http://lod.example/ontology/knows> ?b . } "
       "LIMIT 10000"},
  };
  TablePrinter sparql_table({"query", "mem ms", "mem rows/s",
                             "disk ms", "disk 4t ms", "disk rows/s",
                             "pool hit rate", "identical"});
  for (const auto& q : kExploreQueries) {
    Stopwatch mem_sw;
    sparql::QueryStats mem_stats;
    auto mem_result = mem_engine.ExecuteString(q.text, &mem_stats);
    double mem_ms = mem_sw.ElapsedMillis();
    if (!mem_result.ok()) return 1;

    sparql_disk.pool().ResetCounters();
    Stopwatch disk_sw;
    sparql::QueryStats disk_stats;
    auto disk_result = disk_engine.ExecuteString(q.text, &disk_stats);
    double disk_ms = disk_sw.ElapsedMillis();
    if (!disk_result.ok()) return 1;

    // Same query with 4 executor threads hitting the lock-striped pool
    // concurrently (the pool is warm from the run above, so this isolates
    // storage-layer concurrency from first-touch I/O).
    exec::SetThreads(4);
    Stopwatch disk4_sw;
    auto disk4_result = disk_engine.ExecuteString(q.text);
    double disk4_ms = disk4_sw.ElapsedMillis();
    exec::SetThreads(0);
    if (!disk4_result.ok()) return 1;

    double mem_rows_s =
        mem_ms > 0
            ? static_cast<double>(mem_stats.intermediate_rows) / (mem_ms / 1e3)
            : 0;
    double disk_rows_s = disk_ms > 0
                             ? static_cast<double>(disk_stats.intermediate_rows) /
                                   (disk_ms / 1e3)
                             : 0;
    double hit_rate = sparql_disk.pool().HitRate();
    bool identical = mem_result->ToString(mem_result->num_rows()) ==
                     disk_result->ToString(disk_result->num_rows());
    bool identical4 = disk_result->ToString(disk_result->num_rows()) ==
                      disk4_result->ToString(disk4_result->num_rows());
    sparql_table.AddRow(
        {q.label, bench::Ms(mem_ms),
         FormatCount(static_cast<uint64_t>(mem_rows_s)), bench::Ms(disk_ms),
         bench::Ms(disk4_ms),
         FormatCount(static_cast<uint64_t>(disk_rows_s)),
         bench::Pct(hit_rate),
         identical && identical4 ? "yes" : "NO"});
    telemetry.RecordPhase(std::string("disk_") + q.label + "_4t_ms", disk4_ms);
    telemetry.RecordPhase(std::string("mem_") + q.label + "_ms", mem_ms);
    telemetry.RecordPhase(std::string("mem_") + q.label + "_rows_per_s",
                          mem_rows_s);
    telemetry.RecordPhase(std::string("disk_") + q.label + "_ms", disk_ms);
    telemetry.RecordPhase(std::string("disk_") + q.label + "_rows_per_s",
                          disk_rows_s);
    telemetry.RecordPhase(std::string("disk_") + q.label + "_pool_hit_rate",
                          hit_rate);
    if (!identical || !identical4) {
      std::cerr << "backend divergence on " << q.label << "\n";
      return 1;
    }
  }
  sparql_table.Print(std::cout);

  // The exploration modules read the same TripleSource contract: facets
  // before and after a refinement, and the HETree over age, each on the
  // memory store and on the 64-page disk adapter.
  std::cout << "\nExploration modules, memory vs disk backend (100k "
               "entities, 64-page pool):\n";
  const rdf::Dictionary& dict = mem.dict();
  const rdf::TermId category =
      dict.Lookup(rdf::Term::Iri(workload::lod::kCategory));
  const rdf::TermId category_value = dict.Lookup(rdf::Term::Iri(
      std::string(workload::lod::kCategoryPrefix) + "3"));
  const rdf::TermId age = dict.Lookup(rdf::Term::Iri(workload::lod::kAge));
  auto facets_of = [&](const rdf::TripleSource& source) {
    explore::FacetedBrowser browser(&source);
    std::string out = FacetDigest(browser.Facets());
    LODVIZ_CHECK_OK(browser.Select(category, category_value));
    return out + "|" + FacetDigest(browser.Facets());
  };
  auto hetree_of = [&](const rdf::TripleSource& source) {
    auto tree = hier::HETree::BuildFromProperty(source, age,
                                                hier::HETree::Options());
    LODVIZ_CHECK_OK(tree.status());
    return HETreeDigest(*tree);
  };
  TablePrinter explore_table({"operation", "mem ms", "disk ms", "identical"});
  bool explore_identical = true;
  auto compare = [&](const char* label, const auto& run) {
    Stopwatch mem_sw;
    const std::string mem_out = run(mem);
    const double mem_ms = mem_sw.ElapsedMillis();
    sparql_disk.pool().ResetCounters();
    Stopwatch disk_sw;
    const std::string disk_out = run(adapter);
    const double disk_ms = disk_sw.ElapsedMillis();
    const bool identical = mem_out == disk_out;
    explore_identical = explore_identical && identical;
    explore_table.AddRow({label, bench::Ms(mem_ms), bench::Ms(disk_ms),
                          identical ? "yes" : "NO"});
    telemetry.RecordPhase(std::string("mem_") + label + "_ms", mem_ms);
    telemetry.RecordPhase(std::string("disk_") + label + "_ms", disk_ms);
    telemetry.RecordPhase(std::string("disk_") + label + "_pool_hit_rate",
                          sparql_disk.pool().HitRate());
  };
  // A browser's construction (the all-subjects list it starts from) and
  // its first Facets() call, each timed on its own.
  const explore::FacetedBrowser mem_browser(&mem);
  const explore::FacetedBrowser disk_browser(&adapter);
  compare("browser_build", [](const rdf::TripleSource& source) {
    const explore::FacetedBrowser browser(&source);
    // FNV-1a over the subject list: order-sensitive, and cheap next to
    // the construction it checks.
    uint64_t h = 14695981039346656037ULL;
    for (rdf::TermId s : browser.Matching()) h = (h ^ s) * 1099511628211ULL;
    return std::to_string(browser.Matching().size()) + " " +
           std::to_string(h);
  });
  compare("facets", [&](const rdf::TripleSource& source) {
    return FacetDigest(
        (&source == &adapter ? disk_browser : mem_browser).Facets());
  });
  compare("facets_refine", facets_of);
  compare("hetree_age", hetree_of);
  explore_table.Print(std::cout);
  if (!explore_identical) {
    std::cerr << "backend divergence in the exploration modules\n";
    return 1;
  }

  std::cout << "\nShape check: memory stays capped at the pool size across "
               "dataset scales; larger pools trade memory for hit rate, the "
               "classic buffer-pool curve; SPARQL answers, facets and the "
               "HETree are bit-identical across backends.\n";
  return 0;
}

}  // namespace
}  // namespace lodviz

int main() { return lodviz::Run(); }
