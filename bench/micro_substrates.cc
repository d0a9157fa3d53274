// Google-benchmark micro-benchmarks for the hot substrate paths: the
// per-operation costs everything else in lodviz is built on.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "common/random.h"
#include "core/engine.h"
#include "exec/parallel.h"
#include "explore/facets.h"
#include "geo/rtree.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "rdf/ntriples.h"
#include "rdf/triple_store.h"
#include "rdf/turtle.h"
#include "rdf/vocab.h"
#include "sparql/column_batch.h"
#include "sparql/engine.h"
#include "sparql/lexer.h"
#include "sparql/parser.h"
#include "stats/sketch.h"
#include "storage/btree.h"
#include "storage/buffer_pool.h"
#include "storage/page_file.h"
#include "workload/synthetic_lod.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <unistd.h>
#include <unordered_map>
#include <vector>

namespace lodviz {
namespace {

void BM_DictionaryIntern(benchmark::State& state) {
  rdf::Dictionary dict;
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        dict.InternIri("http://bench.example/entity/" +
                       std::to_string(i++ % 100000)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DictionaryIntern);

void BM_TripleStoreMatchBySubject(benchmark::State& state) {
  rdf::TripleStore store;
  Rng rng(1);
  for (int i = 0; i < 200000; ++i) {
    store.AddEncoded({static_cast<rdf::TermId>(1 + rng.Uniform(20000)),
                      static_cast<rdf::TermId>(1 + rng.Uniform(10)),
                      static_cast<rdf::TermId>(1 + rng.Uniform(50000))});
  }
  store.Compact();
  Rng qrng(2);
  for (auto _ : state) {
    rdf::TriplePattern pat(
        static_cast<rdf::TermId>(1 + qrng.Uniform(20000)),
        rdf::kInvalidTermId, rdf::kInvalidTermId);
    benchmark::DoNotOptimize(store.Count(pat));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TripleStoreMatchBySubject);

void BM_BTreeLookup(benchmark::State& state) {
  std::string path = "/tmp/lodviz_microbench_" + std::to_string(::getpid());
  storage::PageFile file;
  (void)file.Open(path, true);
  storage::BufferPool pool(&file, 1024);
  std::vector<storage::BTree::Item> items;
  for (uint64_t i = 0; i < 500000; ++i) items.push_back({{i * 7, i}, i});
  auto tree = storage::BTree::BulkLoad(&pool, items);
  Rng rng(3);
  for (auto _ : state) {
    uint64_t i = rng.Uniform(500000);
    benchmark::DoNotOptimize(tree->Lookup({i * 7, i}));
  }
  state.SetItemsProcessed(state.iterations());
  std::remove(path.c_str());
}
BENCHMARK(BM_BTreeLookup);

/// Shared fixture for the leaf-codec benchmarks: dense SPO-shaped keys
/// (clustered hi, small lo gaps, zero values — the triple-index common
/// case the compressed format is tuned for).
std::vector<storage::BTree::Item> LeafBenchItems() {
  std::vector<storage::BTree::Item> items;
  for (uint64_t i = 0; i < 4096; ++i) {
    items.push_back({{1000 + i / 16, (i % 16) * 3}, 0});
  }
  return items;
}

void BM_VarintGapEncode(benchmark::State& state) {
  const std::vector<storage::BTree::Item> items = LeafBenchItems();
  alignas(8) uint8_t page[storage::kPageSize] = {};
  size_t encoded = 0;
  for (auto _ : state) {
    storage::CompressedLeafBuilder builder(page, 16);
    size_t n = 0;
    while (n < items.size() && builder.Append(items[n].key, items[n].value)) {
      ++n;
    }
    benchmark::DoNotOptimize(builder.Finish());
    encoded += n;
  }
  state.SetItemsProcessed(static_cast<int64_t>(encoded));
}
BENCHMARK(BM_VarintGapEncode);

void BM_LeafDecodeVarint(benchmark::State& state) {
  const std::vector<storage::BTree::Item> items = LeafBenchItems();
  alignas(8) uint8_t page[storage::kPageSize] = {};
  storage::CompressedLeafBuilder builder(page, 16);
  size_t n = 0;
  while (n < items.size() && builder.Append(items[n].key, items[n].value)) ++n;
  const uint16_t count = builder.Finish();
  storage::CompressedLeafReader reader(page, 16, count);
  std::vector<storage::BTree::Item> out;
  out.reserve(count);
  uint64_t decoded = 0;
  for (auto _ : state) {
    out.clear();
    benchmark::DoNotOptimize(reader.DecodeRange(
        storage::Key128::Min(), storage::Key128::Max(), &out, &decoded));
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(decoded));
}
BENCHMARK(BM_LeafDecodeVarint);

void BM_RTreeWindowQuery(benchmark::State& state) {
  Rng rng(4);
  std::vector<geo::RTree::Entry> entries;
  for (uint64_t i = 0; i < 100000; ++i) {
    double x = rng.UniformDouble(0, 1000), y = rng.UniformDouble(0, 1000);
    entries.push_back({{x, y, x, y}, i});
  }
  geo::RTree tree;
  tree.BulkLoad(entries);
  Rng qrng(5);
  for (auto _ : state) {
    double x = qrng.UniformDouble(0, 950), y = qrng.UniformDouble(0, 950);
    uint64_t n = 0;
    tree.Search({x, y, x + 50, y + 50}, [&](const geo::RTree::Entry&) {
      ++n;
      return true;
    });
    benchmark::DoNotOptimize(n);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RTreeWindowQuery);

void BM_HyperLogLogUpdate(benchmark::State& state) {
  stats::HyperLogLog hll(14);
  uint64_t i = 0;
  for (auto _ : state) {
    hll.Add(i++ * 0x9E3779B97F4A7C15ULL);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HyperLogLogUpdate);

void BM_BufferPoolFetchHit(benchmark::State& state) {
  std::string path = "/tmp/lodviz_microbench_bp_" + std::to_string(::getpid());
  storage::PageFile file;
  (void)file.Open(path, true);
  storage::BufferPool pool(&file, 64);
  // Pages are written to the file first, then fetched once, so the timed
  // loop below only hits.
  std::vector<storage::PageId> ids;
  const std::vector<uint8_t> page(storage::kPageSize, 0);
  for (storage::PageId id = 0; id < 32; ++id) {
    (void)file.WritePage(id, page.data());
    (void)pool.Fetch(id);
    ids.push_back(id);
  }
  Rng rng(6);
  for (auto _ : state) {
    auto p = pool.Fetch(ids[rng.Uniform(ids.size())]);
    benchmark::DoNotOptimize(p->data());
  }
  state.SetItemsProcessed(state.iterations());
  std::remove(path.c_str());
}
BENCHMARK(BM_BufferPoolFetchHit);

void BM_SparqlExecute(benchmark::State& state) {
  rdf::TripleStore store;
  rdf::Dictionary& dict = store.dict();
  rdf::TermId age = dict.InternIri("http://bench.example/age");
  for (int i = 0; i < 10000; ++i) {
    rdf::TermId s =
        dict.InternIri("http://bench.example/person/" + std::to_string(i));
    rdf::TermId o = dict.Intern(rdf::Term::IntLiteral(i % 90));
    store.AddEncoded({s, age, o});
  }
  store.Compact();
  sparql::QueryEngine engine(&store);
  sparql::Query query = bench::Unwrap(sparql::ParseQuery(
      "SELECT ?s WHERE { ?s <http://bench.example/age> ?age . "
      "FILTER(?age < 10) } LIMIT 100"));
  for (auto _ : state) {
    auto r = engine.Execute(query);
    benchmark::DoNotOptimize(r.ok());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SparqlExecute);

// Binding-row representation: the slot-addressed executor stores each
// solution as a dense TermId vector indexed by planner-assigned slot; the
// alternative is a per-row string-keyed hash map. These two benchmarks
// measure the cost of extending a row by one binding under each scheme —
// the innermost operation of BGP evaluation.
void BM_BindingExtendSlotRow(benchmark::State& state) {
  constexpr size_t kWidth = 4;
  std::vector<rdf::TermId> parent = {5, 17, 0, 0};
  std::vector<rdf::TermId> out;
  rdf::TermId v = 1;
  for (auto _ : state) {
    out.assign(parent.begin(), parent.end());
    out[2] = v;
    out[3] = v + 1;
    ++v;
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(state.iterations() * kWidth * sizeof(rdf::TermId));
}
BENCHMARK(BM_BindingExtendSlotRow);

void BM_BindingExtendHashMap(benchmark::State& state) {
  std::unordered_map<std::string, rdf::TermId> parent = {{"?a", 5},
                                                         {"?b", 17}};
  std::unordered_map<std::string, rdf::TermId> out;
  rdf::TermId v = 1;
  for (auto _ : state) {
    out = parent;
    out["?c"] = v;
    out["?d"] = v + 1;
    ++v;
    benchmark::DoNotOptimize(&out);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BindingExtendHashMap);

// Observability substrate costs: a counter increment and a histogram record
// are one relaxed atomic op each; a disabled span is a single relaxed load.
// These bound the overhead instrumentation adds to the hot paths above.
void BM_ObsCounterIncrement(benchmark::State& state) {
  obs::Counter& c =
      obs::MetricRegistry::Global().GetCounter("bench.micro.counter");
  for (auto _ : state) {
    c.Increment();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsCounterIncrement);

void BM_ObsHistogramRecord(benchmark::State& state) {
  obs::Histogram& h =
      obs::MetricRegistry::Global().GetHistogram("bench.micro.histogram");
  uint64_t i = 0;
  for (auto _ : state) {
    h.Record(i++ * 2654435761ULL >> 32);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsHistogramRecord);

void BM_ObsSpanDisabled(benchmark::State& state) {
  obs::Tracer::Global().SetEnabled(false);
  for (auto _ : state) {
    LODVIZ_TRACE_SPAN("bench.micro.span");
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsSpanDisabled);

// Per-operator profiling cost (obs::OperatorTimer, the EXPLAIN ANALYZE
// substrate). The executor constructs one timer per operator invocation;
// with profiling off the node pointer is null and construct+Finish must
// compile down to two predictable branches — the disabled path is what
// every query pays (see the EXPERIMENTS.md micro-benchmarks section).
void BM_ProfileOperatorOff(benchmark::State& state) {
  for (auto _ : state) {
    obs::OperatorTimer timer(nullptr, 1);
    timer.Finish(1);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProfileOperatorOff);

void BM_ProfileOperatorOn(benchmark::State& state) {
  obs::OperatorProfile node;
  for (auto _ : state) {
    obs::OperatorTimer timer(&node, 1);
    timer.Finish(1);
    benchmark::DoNotOptimize(&node);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProfileOperatorOn);

// --- Index nested-loop join fan-out ------------------------------------
//
// A fanout self-join at three fan-outs. Every subject has `fanout`
// p1-edges and the second pattern re-derives the edge with a variable
// predicate (`?a ?p ?b`), so each probe must index-scan the subject's
// whole `fanout`-row range to find its single match. Output is pinned at
// 8192 rows for every arg, so the curve is pure probe cost: it grows
// linearly with fanout, which a set-at-a-time (batched) probe would have
// to flatten.

constexpr int kJoinResultRows = 8192;

void FillJoinStore(rdf::TripleStore* store, int fanout) {
  rdf::Dictionary& dict = store->dict();
  rdf::TermId p1 = dict.InternIri("http://bench.example/p1");
  const int subjects = kJoinResultRows / fanout;
  for (int i = 0; i < subjects; ++i) {
    rdf::TermId a =
        dict.InternIri("http://bench.example/a/" + std::to_string(i));
    for (int k = 0; k < fanout; ++k) {
      rdf::TermId b = dict.InternIri("http://bench.example/b/" +
                                     std::to_string(i * fanout + k));
      store->AddEncoded({a, p1, b});
    }
  }
  store->Compact();
}

void BM_SparqlJoinNestedLoop(benchmark::State& state) {
  rdf::TripleStore store;
  FillJoinStore(&store, static_cast<int>(state.range(0)));
  sparql::QueryEngine engine(&store);
  // COUNT(*) keeps the measurement on the join itself — materializing
  // 8192 projected term rows would otherwise dominate.
  sparql::Query query = bench::Unwrap(sparql::ParseQuery(
      "SELECT (COUNT(*) AS ?n) WHERE { ?a <http://bench.example/p1> ?b . "
      "?a ?p ?b . }"));
  for (auto _ : state) {
    auto r = engine.Execute(query);
    benchmark::DoNotOptimize(r.ok());
  }
  state.SetItemsProcessed(state.iterations() * kJoinResultRows);
}
BENCHMARK(BM_SparqlJoinNestedLoop)->Arg(4)->Arg(32)->Arg(256);

// The fixed cost of one fan-out: ParallelFor over four one-index chunks
// of near-empty work on a 4-thread pool. A chunk whose own work is below
// this is cheaper run inline; the executor's grains are sized against it.
void BM_ParallelForHandoff(benchmark::State& state) {
  exec::SetThreads(4);
  std::atomic<size_t> indexes{0};
  for (auto _ : state) {
    exec::ParallelFor(0, 4, 1, [&](size_t b, size_t e) {
      indexes.fetch_add(e - b, std::memory_order_relaxed);
    });
  }
  exec::SetThreads(0);
  benchmark::DoNotOptimize(indexes.load());
}
BENCHMARK(BM_ParallelForHandoff)->UseRealTime();

// --- Buffer-pool striping ----------------------------------------------
//
// Fetch throughput on an all-hits working set, striped pool vs the same
// pool behind one big mutex (how the pre-PR-5 DiskSourceAdapter
// serialized every scan). Run at 1/2/4/8 threads: the striped pool's
// per-shard mutexes should keep scaling where the single mutex flatlines.
// On a single-core host both curves flatline — the interesting signal is
// then the absence of *regression* at thread counts > 1.

struct PoolBenchEnv {
  std::string path;
  storage::PageFile file;
  std::unique_ptr<storage::BufferPool> pool;
  std::mutex big_lock;
  std::vector<storage::PageId> ids;
};
PoolBenchEnv* g_pool_env = nullptr;

void PoolBenchSetup() {
  auto* env = new PoolBenchEnv;
  env->path = "/tmp/lodviz_microbench_stripe_" + std::to_string(::getpid());
  (void)env->file.Open(env->path, true);
  env->pool = std::make_unique<storage::BufferPool>(&env->file, 128);
  // Written to the file, then fetched once: the timed loop only hits.
  const std::vector<uint8_t> page(storage::kPageSize, 0);
  for (storage::PageId id = 0; id < 128; ++id) {
    (void)env->file.WritePage(id, page.data());
    (void)env->pool->Fetch(id);
    env->ids.push_back(id);
  }
  g_pool_env = env;
}

void PoolBenchTeardown() {
  std::string path = g_pool_env->path;
  delete g_pool_env;
  g_pool_env = nullptr;
  std::remove(path.c_str());
}

void BM_BufferPoolFetchStriped(benchmark::State& state) {
  if (state.thread_index() == 0) PoolBenchSetup();
  // google-benchmark barriers all threads at loop entry, so the setup
  // above is visible before any thread iterates.
  Rng rng(100 + static_cast<uint64_t>(state.thread_index()));
  for (auto _ : state) {
    auto p = g_pool_env->pool->Fetch(
        g_pool_env->ids[rng.Uniform(g_pool_env->ids.size())]);
    benchmark::DoNotOptimize(p->data());
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) PoolBenchTeardown();
}
BENCHMARK(BM_BufferPoolFetchStriped)->ThreadRange(1, 8)->UseRealTime();

void BM_BufferPoolFetchSingleMutex(benchmark::State& state) {
  if (state.thread_index() == 0) PoolBenchSetup();
  Rng rng(200 + static_cast<uint64_t>(state.thread_index()));
  for (auto _ : state) {
    std::lock_guard<std::mutex> lock(g_pool_env->big_lock);
    auto p = g_pool_env->pool->Fetch(
        g_pool_env->ids[rng.Uniform(g_pool_env->ids.size())]);
    benchmark::DoNotOptimize(p->data());
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) PoolBenchTeardown();
}
BENCHMARK(BM_BufferPoolFetchSingleMutex)->ThreadRange(1, 8)->UseRealTime();

// --- Decoded-literal fast path -----------------------------------------
//
// The cost of one numeric filter comparison per row: via the dictionary's
// decoded-value side table (one indexed load) vs re-parsing the literal's
// lexical form the way the pre-PR-5 evaluator did on every row.

void BM_FilterNumericDecoded(benchmark::State& state) {
  rdf::Dictionary dict;
  std::vector<rdf::TermId> ids;
  for (int i = 0; i < 4096; ++i) {
    ids.push_back(dict.Intern(rdf::Term::IntLiteral(i % 90)));
  }
  size_t i = 0;
  for (auto _ : state) {
    const rdf::DecodedValue& d = dict.decoded(ids[i++ & 4095]);
    bool pass = d.kind == rdf::DecodedValue::Kind::kNum && d.num < 10.0;
    benchmark::DoNotOptimize(pass);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FilterNumericDecoded);

void BM_FilterNumericStringParse(benchmark::State& state) {
  rdf::Dictionary dict;
  std::vector<rdf::TermId> ids;
  for (int i = 0; i < 4096; ++i) {
    ids.push_back(dict.Intern(rdf::Term::IntLiteral(i % 90)));
  }
  size_t i = 0;
  for (auto _ : state) {
    auto v = dict.term(ids[i++ & 4095]).AsDouble();
    bool pass = v.ok() && v.ValueOrDie() < 10.0;
    benchmark::DoNotOptimize(pass);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FilterNumericStringParse);

// --- Batch operator substrates -----------------------------------------
//
// The vectorized executor's two inner loops at the representation level.
// Extend: one run appended via ColumnBatch::AppendRun, paying only for the
// columns that actually vary (constant-encoded carries cost O(1) per run).
// Filter: the specialized path streams one contiguous column segment with
// the comparison inlined, emitting a selection vector.

constexpr size_t kOpWidth = 8;     // typical mid-plan solution width
constexpr size_t kOpRows = 4096;   // four full batches of work per tick

void BM_FilterBatch(benchmark::State& state) {
  rdf::Dictionary dict;
  std::vector<rdf::TermId> values;
  values.reserve(kOpRows);
  for (size_t i = 0; i < kOpRows; ++i) {
    values.push_back(
        dict.Intern(rdf::Term::IntLiteral(static_cast<int>(i % 1000))));
  }
  sparql::ColumnBatch batch(kOpWidth);
  const std::vector<rdf::TermId> sol(kOpWidth, 7);
  const sparql::ColumnBatch::RunColumn var[1] = {{5, values.data()}};
  batch.AppendRun(sol.data(), kOpRows, var, 1);
  const sparql::ColumnSegment& col = batch.col(5);
  std::vector<uint32_t> sel;
  for (auto _ : state) {
    sel.clear();
    for (uint32_t r = 0; r < kOpRows; ++r) {
      const rdf::DecodedValue& d = dict.decoded(col.at(r));
      if (d.kind == rdf::DecodedValue::Kind::kNum && d.num >= 500.0) {
        sel.push_back(r);
      }
    }
    benchmark::DoNotOptimize(sel.data());
  }
  state.SetItemsProcessed(state.iterations() * kOpRows);
}
BENCHMARK(BM_FilterBatch);

void BM_BgpExtendBatch(benchmark::State& state) {
  const std::vector<rdf::TermId> sol(kOpWidth, 7);
  std::vector<rdf::TermId> matches(kOpRows);
  for (size_t i = 0; i < kOpRows; ++i) {
    matches[i] = static_cast<rdf::TermId>(i + 1);
  }
  sparql::ColumnBatch out(kOpWidth);
  for (auto _ : state) {
    out.Clear();
    const sparql::ColumnBatch::RunColumn var[1] = {{5, matches.data()}};
    out.AppendRun(sol.data(), matches.size(), var, 1);
    benchmark::DoNotOptimize(&out);
  }
  state.SetItemsProcessed(state.iterations() * kOpRows);
  state.SetBytesProcessed(state.iterations() * kOpRows * kOpWidth *
                          sizeof(rdf::TermId));
}
BENCHMARK(BM_BgpExtendBatch);

// RDF text in: the N-Triples and Turtle loaders over the same document
// (WriteNTriples of a fixed synthetic dataset, which is also valid Turtle),
// and the SPARQL lexer over the lodbench query shapes. Every served request
// is tokenized before its plan-cache lookup.
const std::string& SyntheticNTriples() {
  static const std::string* doc = [] {
    rdf::TripleStore store;
    workload::SyntheticLodOptions opts;
    opts.num_entities = 2000;
    workload::GenerateSyntheticLod(opts, &store);
    std::ostringstream out;
    rdf::WriteNTriples(store, out);
    return new std::string(out.str());
  }();
  return *doc;
}

template <typename LoadFn>
void RunLoadBench(benchmark::State& state, LoadFn load) {
  const std::string& doc = SyntheticNTriples();
  size_t triples = 0;
  for (auto _ : state) {
    rdf::TripleStore store;
    triples = bench::Unwrap(load(doc, &store));
    benchmark::DoNotOptimize(triples);
  }
  state.SetItemsProcessed(state.iterations() * triples);
  state.SetBytesProcessed(state.iterations() * doc.size());
}

void BM_LoadNTriples(benchmark::State& state) {
  RunLoadBench(state, rdf::LoadNTriplesString);
}
BENCHMARK(BM_LoadNTriples)->Unit(benchmark::kMillisecond);

void BM_LoadTurtle(benchmark::State& state) {
  RunLoadBench(state, rdf::LoadTurtleString);
}
BENCHMARK(BM_LoadTurtle)->Unit(benchmark::kMillisecond);

void BM_TokenizeQuery(benchmark::State& state) {
  // serve-mem-views' four shapes (slice, facet, OPTIONAL, ASK), then
  // serve-disk-lookups' entity page and one-hop query.
  const std::vector<std::string> queries = {
      "SELECT ?s ?age WHERE { ?s "
      "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type> "
      "<http://lod.example/ontology/Person> ; "
      "<http://lod.example/ontology/age> ?age . FILTER(?age > 60) } "
      "ORDER BY DESC(?age) LIMIT 100",
      "SELECT ?cat (COUNT(*) AS ?n) WHERE { ?s "
      "<http://lod.example/ontology/category> ?cat } GROUP BY ?cat "
      "ORDER BY DESC(?n) ?cat",
      "SELECT ?s ?label WHERE { ?s <http://lod.example/ontology/age> ?age . "
      "OPTIONAL { ?s <http://www.w3.org/2000/01/rdf-schema#label> ?label . } "
      "FILTER(?age < 20) } ORDER BY ?s LIMIT 200",
      "ASK { ?s <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> "
      "<http://lod.example/ontology/Place> }",
      "SELECT ?p ?o WHERE { <http://lod.example/entity/1234> ?p ?o }",
      "SELECT ?f ?c WHERE { <http://lod.example/entity/1234> "
      "<http://lod.example/ontology/knows> ?f . ?f "
      "<http://lod.example/ontology/category> ?c }",
  };
  size_t bytes = 0;
  for (const std::string& q : queries) bytes += q.size();
  for (auto _ : state) {
    for (const std::string& q : queries) {
      auto tokens = sparql::Tokenize(q);
      benchmark::DoNotOptimize(tokens.ok());
    }
  }
  state.SetItemsProcessed(state.iterations() * queries.size());
  state.SetBytesProcessed(state.iterations() * bytes);
}
BENCHMARK(BM_TokenizeQuery);

// One explore-session step's parts over lodbench's explore dataset (4,000
// entities through core::Engine): facets with no selection and after a
// category refine, the all-subjects scan a new browser starts from, and a
// scatter render of age x lat.
core::Engine& ExploreEngine() {
  static core::Engine* engine = [] {
    auto* e = new core::Engine();
    workload::SyntheticLodOptions opts;
    opts.num_entities = 4000;
    opts.seed = 1;
    e->LoadSynthetic(opts);
    return e;
  }();
  return *engine;
}

void BM_FacetsUnselected(benchmark::State& state) {
  const explore::FacetedBrowser browser = ExploreEngine().MakeBrowser();
  for (auto _ : state) benchmark::DoNotOptimize(browser.Facets());
}
BENCHMARK(BM_FacetsUnselected)->Unit(benchmark::kMicrosecond);

void BM_FacetsRefined(benchmark::State& state) {
  const rdf::Dictionary& dict = ExploreEngine().store().dict();
  explore::FacetedBrowser browser = ExploreEngine().MakeBrowser();
  LODVIZ_CHECK_OK(browser.Select(
      dict.Lookup(rdf::Term::Iri(workload::lod::kCategory)),
      dict.Lookup(rdf::Term::Iri(
          std::string(workload::lod::kCategoryPrefix) + "0"))));
  for (auto _ : state) benchmark::DoNotOptimize(browser.Facets());
}
BENCHMARK(BM_FacetsRefined)->Unit(benchmark::kMicrosecond);

void BM_DistinctSubjects(benchmark::State& state) {
  const rdf::TripleStore& store = ExploreEngine().store();
  for (auto _ : state) benchmark::DoNotOptimize(store.DistinctSubjects());
}
BENCHMARK(BM_DistinctSubjects)->Unit(benchmark::kMicrosecond);

void BM_EngineRenderScatter(benchmark::State& state) {
  viz::VisSpec spec;
  spec.kind = viz::VisKind::kScatter;
  spec.x_property = workload::lod::kAge;
  spec.y_property = rdf::vocab::kGeoLat;
  for (auto _ : state) {
    benchmark::DoNotOptimize(bench::Unwrap(ExploreEngine().Render(spec)));
  }
}
BENCHMARK(BM_EngineRenderScatter)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace lodviz

BENCHMARK_MAIN();
