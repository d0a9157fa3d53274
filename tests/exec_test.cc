#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "common/random.h"
#include "exec/parallel.h"
#include "exec/thread_pool.h"
#include "explore/progressive.h"
#include "graph/bundling.h"
#include "graph/clustering.h"
#include "graph/generators.h"
#include "graph/layout.h"
#include "hier/hetree.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rdf/ntriples.h"
#include "rdf/triple_store.h"
#include "sparql/engine.h"

namespace lodviz::exec {
namespace {

/// Pins the global thread count for one test and restores the
/// environment-derived default on exit.
class ScopedThreads {
 public:
  explicit ScopedThreads(size_t n) { SetThreads(n); }
  ~ScopedThreads() { SetThreads(0); }
};

TEST(ExecPoolTest, ExecutesEveryTask) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&] { count.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.Shutdown();
  EXPECT_EQ(count.load(), 100);
}

TEST(ExecPoolTest, ShutdownDrainsQueueUnderLoad) {
  // Flood the queue faster than 2 workers can drain it, then shut down
  // immediately: graceful shutdown must still run every submitted task.
  ThreadPool pool(2);
  std::atomic<uint64_t> sum{0};
  constexpr int kTasks = 5000;
  for (int i = 0; i < kTasks; ++i) {
    pool.Submit([&sum, i] {
      sum.fetch_add(static_cast<uint64_t>(i), std::memory_order_relaxed);
    });
  }
  pool.Shutdown();
  EXPECT_EQ(sum.load(), static_cast<uint64_t>(kTasks) * (kTasks - 1) / 2);
}

TEST(ExecPoolTest, PerWorkerCountersSumToTotal) {
  // The per-worker exec.worker.<i>.tasks counters are process-wide, so
  // the test reads their deltas.
  obs::MetricRegistry& reg = obs::MetricRegistry::Global();
  auto worker_total = [&reg] {
    uint64_t sum = 0;
    for (int w = 0; w < 3; ++w) {
      sum += reg.GetCounter("exec.worker." + std::to_string(w) + ".tasks")
                 .value();
    }
    return sum;
  };
  obs::Counter& pool_tasks = reg.GetCounter("exec.pool.tasks");
  const uint64_t workers_before = worker_total();
  const uint64_t pool_before = pool_tasks.value();
  ThreadPool pool(3);
  for (int i = 0; i < 300; ++i) pool.Submit([] {});
  pool.Shutdown();
  EXPECT_EQ(worker_total() - workers_before, 300u);
  EXPECT_EQ(pool_tasks.value() - pool_before, 300u);
}

TEST(ExecPoolTest, WorkerThreadsAreRecognized) {
  EXPECT_FALSE(ThreadPool::InAnyPool());
  ThreadPool pool(2);
  std::atomic<bool> in_any{false};
  pool.Submit([&] { in_any.store(ThreadPool::InAnyPool()); });
  pool.Shutdown();
  EXPECT_TRUE(in_any.load());
}

TEST(ExecParallelTest, ForMatchesSerialSum) {
  ScopedThreads threads(4);
  constexpr size_t kN = 1 << 20;
  std::atomic<uint64_t> sum{0};
  ParallelFor(0, kN, 4096, [&](size_t b, size_t e) {
    uint64_t local = 0;
    for (size_t i = b; i < e; ++i) local += i;
    sum.fetch_add(local, std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), static_cast<uint64_t>(kN) * (kN - 1) / 2);
}

TEST(ExecParallelTest, ForCoversEveryIndexExactlyOnce) {
  ScopedThreads threads(8);
  constexpr size_t kN = 100000;
  std::vector<uint8_t> hits(kN, 0);
  ParallelFor(0, kN, 17, [&](size_t b, size_t e) {
    for (size_t i = b; i < e; ++i) ++hits[i];  // chunks are disjoint
  });
  EXPECT_EQ(std::count(hits.begin(), hits.end(), 1),
            static_cast<ptrdiff_t>(kN));
}

TEST(ExecParallelTest, ReduceMatchesSerialForAnyThreadCount) {
  constexpr size_t kN = 333333;
  auto run = [&] {
    return ParallelReduce<uint64_t>(
        0, kN, 1000,
        [](size_t b, size_t e) {
          uint64_t s = 0;
          for (size_t i = b; i < e; ++i) s += i;
          return s;
        },
        [](uint64_t& acc, uint64_t&& part) { acc += part; });
  };
  uint64_t expected = static_cast<uint64_t>(kN) * (kN - 1) / 2;
  {
    ScopedThreads threads(1);
    EXPECT_EQ(run(), expected);
  }
  {
    ScopedThreads threads(4);
    EXPECT_EQ(run(), expected);
  }
}

TEST(ExecParallelTest, SortMatchesStdSort) {
  ScopedThreads threads(4);
  Rng rng(7);
  std::vector<uint64_t> values(1 << 16);
  for (uint64_t& v : values) v = rng.Next();
  std::vector<uint64_t> expected = values;
  std::sort(expected.begin(), expected.end());
  ParallelSort(values.begin(), values.end(), std::less<uint64_t>());
  EXPECT_EQ(values, expected);
}

TEST(ExecParallelTest, OneThreadRunsInlineAsSingleCall) {
  ScopedThreads threads(1);
  EXPECT_TRUE(SerialMode());
  // The serial contract: exactly one fn invocation covering the whole
  // range on the calling thread — bit-identical to pre-exec code.
  std::vector<std::pair<size_t, size_t>> calls;
  ParallelFor(0, 10000, 64, [&](size_t b, size_t e) {
    EXPECT_FALSE(InWorkerThread());
    calls.emplace_back(b, e);
  });
  ASSERT_EQ(calls.size(), 1u);
  EXPECT_EQ(calls[0], (std::pair<size_t, size_t>(0, 10000)));
}

TEST(ExecParallelTest, NestedParallelismDegradesToSerial) {
  ScopedThreads threads(4);
  std::atomic<int> nested_serial{0}, chunks{0};
  ParallelFor(0, 8, 1, [&](size_t, size_t) {
    chunks.fetch_add(1);
    if (SerialMode()) nested_serial.fetch_add(1);
    // A nested call must run inline on this worker, not deadlock the pool.
    std::atomic<int> inner{0};
    ParallelFor(0, 4, 1, [&](size_t b, size_t e) {
      inner.fetch_add(static_cast<int>(e - b));
    });
    EXPECT_EQ(inner.load(), 4);
  });
  EXPECT_EQ(chunks.load(), 8);
  EXPECT_EQ(nested_serial.load(), 8);  // every chunk saw SerialMode()
}

TEST(ExecTraceTest, SpanParentPropagatesIntoWorkers) {
  ScopedThreads threads(4);
  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.SetEnabled(true);
  {
    LODVIZ_TRACE_SPAN("exec.test.parent");
    ParallelFor(0, 64, 1, [&](size_t, size_t) {
      LODVIZ_TRACE_SPAN("exec.test.child");
    });
  }
  tracer.SetEnabled(false);
  uint64_t parent_id = 0;
  for (const obs::SpanRecord& r : tracer.Finished()) {
    if (r.name == "exec.test.parent") parent_id = r.id;
  }
  ASSERT_NE(parent_id, 0u);
  size_t children = 0;
  for (const obs::SpanRecord& r : tracer.Finished()) {
    if (r.name != "exec.test.child") continue;
    ++children;
    EXPECT_EQ(r.parent_id, parent_id)
        << "child span lost its cross-thread parent";
  }
  EXPECT_EQ(children, 64u);
}

// --- Determinism and TSan coverage of the parallelized hot paths. Run
// each path at 1 thread and at 4 and require identical (or, where the
// parallel algorithm legitimately reassociates floating point,
// near-identical) results.

std::vector<hier::Item> DistinctItems(size_t n) {
  std::vector<hier::Item> items(n);
  Rng rng(99);
  std::vector<double> values(n);
  std::iota(values.begin(), values.end(), 0.0);  // distinct => unique order
  for (size_t i = n; i > 1; --i) std::swap(values[i - 1], values[rng.Uniform(i)]);
  for (size_t i = 0; i < n; ++i) items[i] = {values[i], i};
  return items;
}

TEST(ExecDeterminismTest, HETreeBuildIsThreadCountInvariant) {
  constexpr size_t kN = 80000;  // above the parallel-sort cutoff
  hier::HETree::Options opt;
  opt.fanout = 4;
  opt.leaf_capacity = 64;
  auto build = [&] {
    auto t = hier::HETree::Build(DistinctItems(kN), opt);
    EXPECT_TRUE(t.ok());
    return std::move(t).ValueOrDie();
  };
  SetThreads(1);
  hier::HETree serial = build();
  SetThreads(4);
  hier::HETree parallel = build();
  SetThreads(0);
  ASSERT_EQ(serial.materialized_nodes(), parallel.materialized_nodes());
  for (hier::HETree::NodeId id = 0; id < serial.materialized_nodes(); ++id) {
    const auto& a = serial.node(id);
    const auto& b = parallel.node(id);
    EXPECT_EQ(a.first, b.first);
    EXPECT_EQ(a.last, b.last);
    EXPECT_EQ(a.lo, b.lo);
    EXPECT_EQ(a.hi, b.hi);
    EXPECT_EQ(a.depth, b.depth);
    EXPECT_EQ(a.stats.sum, b.stats.sum);
    EXPECT_EQ(a.children, b.children);
  }
}

TEST(ExecDeterminismTest, ModularityIsExactAcrossThreadCounts) {
  graph::Graph g = graph::BarabasiAlbert(3000, 3, 11);
  graph::Clustering c = graph::LouvainClustering(g, 5);
  SetThreads(1);
  double serial = graph::Modularity(g, c);
  SetThreads(4);
  double parallel = graph::Modularity(g, c);
  SetThreads(0);
  EXPECT_EQ(serial, parallel);  // integer-valued sums: exact either way
}

TEST(ExecDeterminismTest, BundlingIsExactAcrossThreadCounts) {
  graph::Graph g = graph::BarabasiAlbert(60, 2, 3);
  graph::Layout layout = graph::CircularLayout(g);
  graph::BundlingOptions opt;
  opt.iterations = 20;
  SetThreads(1);
  graph::BundlingResult serial = BundleEdges(g, layout, opt);
  SetThreads(4);
  graph::BundlingResult parallel = BundleEdges(g, layout, opt);
  SetThreads(0);
  EXPECT_EQ(serial.compatible_pairs, parallel.compatible_pairs);
  ASSERT_EQ(serial.polylines.size(), parallel.polylines.size());
  for (size_t e = 0; e < serial.polylines.size(); ++e) {
    ASSERT_EQ(serial.polylines[e].size(), parallel.polylines[e].size());
    for (size_t i = 0; i < serial.polylines[e].size(); ++i) {
      EXPECT_EQ(serial.polylines[e][i].x, parallel.polylines[e][i].x);
      EXPECT_EQ(serial.polylines[e][i].y, parallel.polylines[e][i].y);
    }
  }
}

TEST(ExecDeterminismTest, ForceLayoutRunsUnderParallelism) {
  // The parallel repulsion reassociates float sums, so only structural
  // properties are asserted; this is primarily a TSan target.
  ScopedThreads threads(4);
  graph::Graph g = graph::BarabasiAlbert(400, 2, 21);
  graph::ForceLayoutOptions opt;
  opt.iterations = 10;
  graph::Layout layout = graph::ForceDirectedLayout(g, opt);
  ASSERT_EQ(layout.size(), g.num_nodes());
  for (const geo::Point& p : layout) {
    EXPECT_GE(p.x, 0.0);
    EXPECT_LE(p.x, 1.0);
    EXPECT_GE(p.y, 0.0);
    EXPECT_LE(p.y, 1.0);
  }
}

TEST(ExecDeterminismTest, ProgressiveMomentsMatchSerialClosely) {
  std::vector<double> values(50000);
  Rng rng(13);
  for (double& v : values) v = rng.UniformDouble(-5.0, 5.0);
  auto run = [&] {
    explore::ProgressiveAggregator agg(values.size());
    agg.ProcessChunk(values);
    agg.MarkComplete();
    return agg.Estimate();
  };
  SetThreads(1);
  explore::ProgressiveEstimate serial = run();
  SetThreads(4);
  explore::ProgressiveEstimate parallel = run();
  SetThreads(0);
  EXPECT_EQ(serial.rows_seen, parallel.rows_seen);
  // Chan's pairwise merge reassociates the Welford recurrence; values agree
  // to ~1e-12 relative, far tighter than anything downstream observes.
  EXPECT_NEAR(serial.mean, parallel.mean, 1e-9);
  EXPECT_NEAR(serial.sum_estimate, parallel.sum_estimate,
              1e-9 * std::abs(serial.sum_estimate));
}

TEST(ExecDeterminismTest, SparqlRowsIdenticalAcrossThreadCounts) {
  std::string doc;
  for (int i = 0; i < 400; ++i) {
    doc += "<http://x/s" + std::to_string(i) + "> <http://x/v> \"" +
           std::to_string(i) +
           "\"^^<http://www.w3.org/2001/XMLSchema#integer> .\n";
    doc += "<http://x/s" + std::to_string(i) + "> <http://x/type> <http://x/T" +
           std::to_string(i % 3) + "> .\n";
  }
  rdf::TripleStore store;
  ASSERT_TRUE(rdf::LoadNTriplesString(doc, &store).ok());
  sparql::QueryEngine engine(&store);
  const char* query =
      "SELECT ?s ?v WHERE { ?s <http://x/v> ?v . "
      "?s <http://x/type> <http://x/T1> . FILTER(?v >= 100) }";
  SetThreads(1);
  auto serial = engine.ExecuteString(query);
  ASSERT_TRUE(serial.ok());
  SetThreads(4);
  auto parallel = engine.ExecuteString(query);
  ASSERT_TRUE(parallel.ok());
  SetThreads(0);
  EXPECT_GT(serial->num_rows(), 0u);
  // Same rows in the same order: parallel chunks concatenate in order.
  EXPECT_EQ(serial->ToString(1000), parallel->ToString(1000));
}

}  // namespace
}  // namespace lodviz::exec
