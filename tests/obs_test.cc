// Tests for the lodviz::obs observability layer: metric registry identity
// and concurrency, histogram quantile accuracy against a sorted reference,
// hierarchical span trees, and the machine-readable exporters. Suites are
// named with an `Obs` prefix so `ctest -R '^Obs'` selects exactly this
// binary's tests (scripts/check.sh runs them under TSan).

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/query_log.h"
#include "obs/trace.h"

namespace lodviz::obs {
namespace {

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

TEST(ObsRegistryTest, SameNameReturnsSameMetric) {
  MetricRegistry reg;
  Counter& a = reg.GetCounter("x.count");
  Counter& b = reg.GetCounter("x.count");
  EXPECT_EQ(&a, &b);
  Gauge& g1 = reg.GetGauge("x.level");
  Gauge& g2 = reg.GetGauge("x.level");
  EXPECT_EQ(&g1, &g2);
  Histogram& h1 = reg.GetHistogram("x.lat_us");
  Histogram& h2 = reg.GetHistogram("x.lat_us");
  EXPECT_EQ(&h1, &h2);
  // Same name in different metric families are distinct objects.
  EXPECT_NE(static_cast<void*>(&a), static_cast<void*>(&reg.GetGauge("x.count")));
}

TEST(ObsRegistryTest, CounterGaugeBasics) {
  MetricRegistry reg;
  Counter& c = reg.GetCounter("t.events");
  EXPECT_EQ(c.value(), 0u);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.value(), 42u);
  c.Reset();
  EXPECT_EQ(c.value(), 0u);

  Gauge& g = reg.GetGauge("t.depth");
  g.Set(7);
  g.Add(-3);
  EXPECT_EQ(g.value(), 4);
}

TEST(ObsRegistryTest, SnapshotSortedAndComplete) {
  MetricRegistry reg;
  reg.GetCounter("b.two").Increment(2);
  reg.GetCounter("a.one").Increment(1);
  reg.GetGauge("g.level").Set(-5);
  reg.GetHistogram("h.lat").Record(10);
  MetricsSnapshot snap = reg.Snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].first, "a.one");
  EXPECT_EQ(snap.counters[0].second, 1u);
  EXPECT_EQ(snap.counters[1].first, "b.two");
  EXPECT_EQ(snap.counters[1].second, 2u);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].second, -5);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].second.count, 1u);
}

// Hammers registration and increments from many threads: every thread asks
// the registry for the same names while incrementing, so first-use
// registration races with lookups. Run under TSan via scripts/check.sh.
TEST(ObsConcurrencyTest, RacingRegistrationAndIncrements) {
  MetricRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kIncrementsPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg, t] {
      Counter& mine = reg.GetCounter("race.shared");
      Histogram& hist = reg.GetHistogram("race.lat");
      for (int i = 0; i < kIncrementsPerThread; ++i) {
        mine.Increment();
        hist.Record(static_cast<uint64_t>(t * kIncrementsPerThread + i));
        if (i % 1000 == 0) {
          // Re-lookup mid-flight: must hit the same object.
          reg.GetCounter("race.shared").Increment(0);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(reg.GetCounter("race.shared").value(),
            static_cast<uint64_t>(kThreads) * kIncrementsPerThread);
  EXPECT_EQ(reg.GetHistogram("race.lat").count(),
            static_cast<uint64_t>(kThreads) * kIncrementsPerThread);
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

TEST(ObsHistogramTest, SmallValuesAreExact) {
  Histogram h;
  for (uint64_t v = 0; v < Histogram::kSubBucketCount; ++v) {
    EXPECT_EQ(Histogram::BucketUpperBound(Histogram::BucketFor(v)), v);
  }
  for (uint64_t v = 0; v < 10; ++v) h.Record(v);
  EXPECT_EQ(h.count(), 10u);
  EXPECT_EQ(h.Quantile(0.0), 0u);
  EXPECT_EQ(h.Quantile(1.0), 9u);
}

TEST(ObsHistogramTest, BucketMappingIsMonotonicAndTight) {
  size_t prev = Histogram::BucketFor(0);
  for (uint64_t v = 1; v < 1'000'000; v = v * 17 / 16 + 1) {
    size_t b = Histogram::BucketFor(v);
    EXPECT_GE(b, prev) << "v=" << v;
    // The value must not exceed its bucket's upper bound, and the bound
    // must stay within the promised relative error.
    uint64_t ub = Histogram::BucketUpperBound(b);
    EXPECT_GE(ub, v);
    EXPECT_LE(static_cast<double>(ub),
              static_cast<double>(v) * (1.0 + 1.0 / Histogram::kSubBucketCount))
        << "v=" << v;
    prev = b;
  }
}

TEST(ObsHistogramTest, QuantilesTrackSortedReference) {
  Histogram h;
  Rng rng(42);
  std::vector<uint64_t> reference;
  reference.reserve(20000);
  for (int i = 0; i < 20000; ++i) {
    // Skewed latency-like distribution spanning several powers of two.
    uint64_t v = 1 + rng.Uniform(100) * rng.Uniform(100) * rng.Uniform(50);
    reference.push_back(v);
    h.Record(v);
  }
  std::sort(reference.begin(), reference.end());
  for (double q : {0.5, 0.95, 0.99}) {
    uint64_t exact =
        reference[static_cast<size_t>(q * (reference.size() - 1))];
    uint64_t approx = h.Quantile(q);
    // Log-bucketing promises <= 1/16 relative error; allow slack for the
    // rank-vs-index off-by-one at the bucket edge.
    EXPECT_GE(static_cast<double>(approx), static_cast<double>(exact) * 0.93)
        << "q=" << q;
    EXPECT_LE(static_cast<double>(approx), static_cast<double>(exact) * 1.08)
        << "q=" << q;
  }
  HistogramSummary s = h.Summarize();
  EXPECT_EQ(s.count, reference.size());
  EXPECT_EQ(s.min, reference.front());
  EXPECT_EQ(s.max, reference.back());
  double exact_sum = 0;
  for (uint64_t v : reference) exact_sum += static_cast<double>(v);
  EXPECT_DOUBLE_EQ(s.sum, exact_sum);
  EXPECT_NEAR(s.mean, exact_sum / static_cast<double>(s.count), 1e-9);
}

TEST(ObsHistogramTest, EmptyAndNegativeInputs) {
  Histogram h;
  EXPECT_EQ(h.Quantile(0.5), 0u);
  HistogramSummary s = h.Summarize();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.min, 0u);
  EXPECT_EQ(s.max, 0u);
  h.RecordDouble(-12.5);  // clamps to 0
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.Quantile(1.0), 0u);
}

// ---------------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------------

/// The spans the global tracer finished after it held `before` of them.
/// Nothing empties the process-wide buffer, so each test reads its own
/// suffix.
std::vector<SpanRecord> SpansSince(size_t before) {
  std::vector<SpanRecord> all = Tracer::Global().Finished();
  all.erase(all.begin(), all.begin() + std::min(before, all.size()));
  return all;
}

TEST(ObsTraceTest, DisabledSpansRecordNothing) {
  Tracer& tracer = Tracer::Global();
  tracer.SetEnabled(false);
  const size_t before = tracer.Finished().size();
  {
    LODVIZ_TRACE_SPAN("off.outer");
    LODVIZ_TRACE_SPAN("off.inner");
  }
  EXPECT_EQ(tracer.Finished().size(), before);
}

TEST(ObsTraceTest, NestedSpansFormTree) {
  Tracer& tracer = Tracer::Global();
  const size_t before = tracer.Finished().size();
  tracer.SetEnabled(true);
  {
    LODVIZ_TRACE_SPAN("t.root");
    {
      LODVIZ_TRACE_SPAN("t.child");
      { LODVIZ_TRACE_SPAN("t.grandchild"); }
    }
    { LODVIZ_TRACE_SPAN("t.sibling"); }
  }
  tracer.SetEnabled(false);
  std::vector<SpanRecord> spans = SpansSince(before);
  ASSERT_EQ(spans.size(), 4u);
  // Completion order: innermost scopes close first.
  auto find = [&](const std::string& name) -> const SpanRecord& {
    for (const SpanRecord& s : spans) {
      if (s.name == name) return s;
    }
    ADD_FAILURE() << "span not found: " << name;
    return spans[0];
  };
  const SpanRecord& root = find("t.root");
  const SpanRecord& child = find("t.child");
  const SpanRecord& grandchild = find("t.grandchild");
  const SpanRecord& sibling = find("t.sibling");
  EXPECT_EQ(root.parent_id, 0u);
  EXPECT_EQ(root.depth, 0u);
  EXPECT_EQ(child.parent_id, root.id);
  EXPECT_EQ(child.depth, 1u);
  EXPECT_EQ(grandchild.parent_id, child.id);
  EXPECT_EQ(grandchild.depth, 2u);
  EXPECT_EQ(sibling.parent_id, root.id);
  // Time containment: children nest inside their parents.
  EXPECT_LE(root.start_ns, child.start_ns);
  EXPECT_LE(child.end_ns, root.end_ns);
  EXPECT_LE(child.start_ns, grandchild.start_ns);
  EXPECT_LE(grandchild.end_ns, child.end_ns);
  EXPECT_GE(root.duration_ns(), 0);
}

TEST(ObsTraceTest, BufferIsBoundedAndCountsDrops) {
  // A full buffer stays full (nothing empties it), so the filling runs in
  // a child process and leaves this one's tracer as it was.
  EXPECT_EXIT(
      {
        Tracer& tracer = Tracer::Global();
        const size_t before = tracer.Finished().size();
        const uint64_t dropped_before = tracer.dropped();
        tracer.SetEnabled(true);
        for (size_t i = 0; i < Tracer::kMaxFinishedSpans + 100; ++i) {
          LODVIZ_TRACE_SPAN("cap.span");
        }
        tracer.SetEnabled(false);
        const bool bounded =
            tracer.Finished().size() == Tracer::kMaxFinishedSpans &&
            tracer.dropped() == dropped_before + before + 100;
        std::exit(bounded ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "");
}

// Concurrent span streams from several threads: each thread's spans must
// chain to its own roots, never across threads. Exercised under TSan.
TEST(ObsConcurrencyTest, ThreadedSpansStayPerThread) {
  Tracer& tracer = Tracer::Global();
  const size_t before = tracer.Finished().size();
  tracer.SetEnabled(true);
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        LODVIZ_TRACE_SPAN("mt.outer");
        LODVIZ_TRACE_SPAN("mt.inner");
      }
    });
  }
  for (std::thread& th : threads) th.join();
  tracer.SetEnabled(false);
  std::vector<SpanRecord> spans = SpansSince(before);
  ASSERT_EQ(spans.size(),
            static_cast<size_t>(kThreads) * kSpansPerThread * 2);
  // Index spans by id so parents can be resolved.
  std::vector<const SpanRecord*> by_id;
  for (const SpanRecord& s : spans) {
    if (s.id >= by_id.size()) by_id.resize(s.id + 1, nullptr);
    by_id[s.id] = &s;
  }
  for (const SpanRecord& s : spans) {
    if (s.name == "mt.outer") {
      EXPECT_EQ(s.parent_id, 0u);
    } else {
      ASSERT_LT(s.parent_id, by_id.size());
      const SpanRecord* parent = by_id[s.parent_id];
      ASSERT_NE(parent, nullptr);
      EXPECT_EQ(parent->thread_id, s.thread_id)
          << "span parented across threads";
    }
  }
}

// ---------------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------------

// Minimal recursive-descent JSON reader — just enough to validate that the
// exporters emit structurally well-formed JSON. Accepts objects, arrays,
// strings, numbers, true/false/null; rejects trailing garbage.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}

  bool Valid() {
    SkipWs();
    if (!Value()) return false;
    SkipWs();
    return pos_ == s_.size();
  }

 private:
  void SkipWs() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }
  bool Literal(const char* lit) {
    size_t len = std::string(lit).size();
    if (s_.compare(pos_, len, lit) != 0) return false;
    pos_ += len;
    return true;
  }
  bool String() {
    if (pos_ >= s_.size() || s_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') ++pos_;
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }
  bool Number() {
    size_t start = pos_;
    if (pos_ < s_.size() && (s_[pos_] == '-' || s_[pos_] == '+')) ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '-' || s_[pos_] == '+')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool Value() {
    SkipWs();
    if (pos_ >= s_.size()) return false;
    char c = s_[pos_];
    if (c == '{') return Object();
    if (c == '[') return Array();
    if (c == '"') return String();
    if (c == 't') return Literal("true");
    if (c == 'f') return Literal("false");
    if (c == 'n') return Literal("null");
    return Number();
  }
  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (pos_ < s_.size() && s_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (pos_ >= s_.size() || s_[pos_] != ':') return false;
      ++pos_;
      if (!Value()) return false;
      SkipWs();
      if (pos_ < s_.size() && s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      break;
    }
    if (pos_ >= s_.size() || s_[pos_] != '}') return false;
    ++pos_;
    return true;
  }
  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (pos_ < s_.size() && s_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      if (!Value()) return false;
      SkipWs();
      if (pos_ < s_.size() && s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      break;
    }
    if (pos_ >= s_.size() || s_[pos_] != ']') return false;
    ++pos_;
    return true;
  }

  const std::string& s_;
  size_t pos_ = 0;
};

TEST(ObsExportTest, JsonEscapeHandlesSpecials) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape("a\nb"), "a\\nb");
  std::string ctl = JsonEscape(std::string(1, '\x01'));
  EXPECT_EQ(ctl, "\\u0001");
}

TEST(ObsExportTest, JsonEscapeUtf8AndInvalidBytes) {
  // Well-formed UTF-8 passes through untouched (2-, 3- and 4-byte forms).
  EXPECT_EQ(JsonEscape("caf\xC3\xA9"), "caf\xC3\xA9");
  EXPECT_EQ(JsonEscape("\xE2\x82\xAC"), "\xE2\x82\xAC");        // €
  EXPECT_EQ(JsonEscape("\xF0\x9F\x94\xA5"), "\xF0\x9F\x94\xA5");  // 🔥
  // Invalid bytes are escaped so the document always parses: a stray
  // continuation byte, a lone lead byte at end of string, an overlong
  // lead (0xC0/0xC1), and a lead byte past U+10FFFF (0xF5..0xFF).
  EXPECT_EQ(JsonEscape(std::string(1, '\xA9')), "\\u00a9");
  EXPECT_EQ(JsonEscape(std::string(1, '\xC3')), "\\u00c3");
  EXPECT_EQ(JsonEscape("\xC0\xAF"), "\\u00c0\\u00af");
  EXPECT_EQ(JsonEscape(std::string(1, '\xFF')), "\\u00ff");
  // A truncated 3-byte sequence: the lead is escaped, and the tail bytes
  // (now stray continuations) are escaped too.
  EXPECT_EQ(JsonEscape("\xE2\x82"), "\\u00e2\\u0082");
  // Valid multibyte directly after an invalid byte still passes through.
  EXPECT_EQ(JsonEscape("\xFF\xC3\xA9"), "\\u00ff\xC3\xA9");
}

TEST(ObsExportTest, HostileMetricNamesStayParseable) {
  MetricRegistry reg;
  reg.GetCounter("evil\"name\\with\nnewline").Increment(2);
  reg.GetCounter(std::string("latin1_caf\xE9_suffix")).Increment(5);
  reg.GetGauge("caf\xC3\xA9.gauge").Set(-1);
  reg.GetHistogram("h\"ist\\o").Record(7);
  std::string json = JsonSnapshot(reg.Snapshot());
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find("evil\\\"name\\\\with\\nnewline"), std::string::npos)
      << json;
  EXPECT_NE(json.find("latin1_caf\\u00e9_suffix"), std::string::npos) << json;
  EXPECT_NE(json.find("caf\xC3\xA9.gauge"), std::string::npos) << json;

  // Prometheus names must stay in [a-zA-Z0-9_] whatever the input.
  std::string prom = PrometheusText(reg.Snapshot());
  for (size_t pos = prom.find("lodviz_"); pos != std::string::npos;
       pos = prom.find("lodviz_", pos + 1)) {
    size_t end = pos;
    while (end < prom.size() && !std::isspace(static_cast<unsigned char>(
                                    prom[end])) && prom[end] != '{') {
      char c = prom[end];
      bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                (c >= '0' && c <= '9') || c == '_';
      EXPECT_TRUE(ok) << "byte " << static_cast<int>(c) << " in " << prom;
      ++end;
    }
  }
}

TEST(ObsExportTest, HostileSpanNamesStayParseable) {
  std::vector<SpanRecord> spans(1);
  spans[0].name = "sp\"an\\one\x01\xFF";
  spans[0].start_ns = 10;
  spans[0].end_ns = 20;
  std::string array = ChromeTraceJson(spans);
  EXPECT_TRUE(JsonChecker(array).Valid()) << array;
  EXPECT_NE(array.find("sp\\\"an\\\\one\\u0001\\u00ff"), std::string::npos)
      << array;
}

TEST(ObsExportTest, JsonSnapshotIsWellFormedAndComplete) {
  MetricRegistry reg;
  reg.GetCounter("sub.hits").Increment(3);
  reg.GetGauge("sub.capacity").Set(64);
  Histogram& h = reg.GetHistogram("sub.lat_us");
  for (uint64_t v = 1; v <= 100; ++v) h.Record(v);
  std::string json = JsonSnapshot(reg.Snapshot());
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find("\"sub.hits\":3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"sub.capacity\":64"), std::string::npos) << json;
  EXPECT_NE(json.find("\"p50\":"), std::string::npos);
  EXPECT_NE(json.find("\"p95\":"), std::string::npos);
  EXPECT_NE(json.find("\"p99\":"), std::string::npos);
  EXPECT_NE(json.find("\"count\":100"), std::string::npos);
}

TEST(ObsExportTest, PrometheusTextFormat) {
  MetricRegistry reg;
  reg.GetCounter("storage.buffer_pool.hits").Increment(9);
  reg.GetGauge("explore.depth").Set(2);
  reg.GetHistogram("sparql.execute_us").Record(500);
  std::string text = PrometheusText(reg.Snapshot());
  EXPECT_NE(text.find("# TYPE lodviz_storage_buffer_pool_hits counter"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("lodviz_storage_buffer_pool_hits 9"), std::string::npos);
  EXPECT_NE(text.find("# TYPE lodviz_explore_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE lodviz_sparql_execute_us summary"),
            std::string::npos);
  EXPECT_NE(text.find("quantile=\"0.5\""), std::string::npos);
  EXPECT_NE(text.find("lodviz_sparql_execute_us_count 1"), std::string::npos);
}

TEST(ObsExportTest, ChromeTraceRoundTrip) {
  Tracer& tracer = Tracer::Global();
  const size_t before = tracer.Finished().size();
  tracer.SetEnabled(true);
  {
    LODVIZ_TRACE_SPAN("exp.root");
    { LODVIZ_TRACE_SPAN("exp.child"); }
  }
  tracer.SetEnabled(false);
  std::vector<SpanRecord> spans = SpansSince(before);
  ASSERT_EQ(spans.size(), 2u);

  std::string array = ChromeTraceJson(spans);
  EXPECT_TRUE(JsonChecker(array).Valid()) << array;
  EXPECT_EQ(array.front(), '[');
  EXPECT_EQ(array.back(), ']');
  EXPECT_NE(array.find("\"name\":\"exp.root\""), std::string::npos) << array;
  EXPECT_NE(array.find("\"name\":\"exp.child\""), std::string::npos);
  EXPECT_NE(array.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(array.find("\"ts\":"), std::string::npos);
  EXPECT_NE(array.find("\"dur\":"), std::string::npos);

  // Empty trace still yields a valid (empty) array.
  EXPECT_EQ(ChromeTraceJson({}), "[]");
}

TEST(ObsExportTest, GlobalConvenienceOverloadsRender) {
  MetricRegistry::Global().GetCounter("obs_test.global_probe").Increment();
  std::string json = JsonSnapshot();
  EXPECT_TRUE(JsonChecker(json).Valid());
  EXPECT_NE(json.find("obs_test.global_probe"), std::string::npos);
  std::string prom = PrometheusText();
  EXPECT_NE(prom.find("lodviz_obs_test_global_probe"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Operator profiles
// ---------------------------------------------------------------------------

TEST(ObsProfileTest, TimerAccumulatesAndNullIsInert) {
  OperatorProfile node;
  {
    OperatorTimer t(&node, 3);
    t.Finish(42);
    t.Finish(99);  // second Finish is a no-op
  }
  EXPECT_EQ(node.invocations, 3u);
  EXPECT_EQ(node.actual_rows, 42u);
  EXPECT_GE(node.wall_ns, 0);
  {
    OperatorTimer t(nullptr, 5);
    t.Finish(7);
  }
  EXPECT_EQ(node.invocations, 3u);  // untouched

  OperatorTimer again(&node);
  again.Finish(8);
  EXPECT_EQ(node.invocations, 4u);
  EXPECT_EQ(node.actual_rows, 50u);
}

TEST(ObsProfileTest, MisestimateFlagging) {
  EXPECT_FALSE(IsMisestimate(-1.0, 1000));  // no estimate, never flags
  EXPECT_FALSE(IsMisestimate(100.0, 100));
  EXPECT_FALSE(IsMisestimate(100.0, 350));
  EXPECT_TRUE(IsMisestimate(100.0, 500));
  EXPECT_TRUE(IsMisestimate(500.0, 100));
  EXPECT_FALSE(IsMisestimate(0.0, 2));  // +1 smoothing: 3/1 < 4
  EXPECT_TRUE(IsMisestimate(0.0, 5));
}

TEST(ObsProfileTest, TreeRenderingAndJson) {
  QueryProfile qp;
  qp.fingerprint = 0xDEADBEEFCAFEF00DULL;
  qp.total_ns = 1'500'000;
  qp.rows_out = 3;
  qp.intermediate_rows = 12;
  qp.profiled = true;
  qp.root.op = "group";
  qp.root.invocations = 1;
  qp.root.actual_rows = 3;
  OperatorProfile scan;
  scan.op = "scan";
  scan.label = "?s <p> ?o";
  scan.est_rows = 2.0;
  scan.actual_rows = 100;
  scan.invocations = 1;
  scan.wall_ns = 12'345;
  qp.root.children.push_back(scan);

  std::string tree = ProfileTreeString(qp.root);
  EXPECT_NE(tree.find("group"), std::string::npos) << tree;
  EXPECT_NE(tree.find("?s <p> ?o"), std::string::npos) << tree;
  EXPECT_NE(tree.find("est=2"), std::string::npos) << tree;
  EXPECT_NE(tree.find("act=100"), std::string::npos) << tree;
  EXPECT_NE(tree.find("misestimate"), std::string::npos) << tree;

  std::string json = ProfileJson(qp);
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find("\"fingerprint\":\"0xdeadbeefcafef00d\""),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"profiled\":true"), std::string::npos) << json;
  EXPECT_NE(json.find("\"children\":["), std::string::npos) << json;
}

// ---------------------------------------------------------------------------
// Slow-query journal
// ---------------------------------------------------------------------------

QueryLogEntry MakeEntry(uint64_t fp, double latency_us) {
  QueryLogEntry e;
  e.fingerprint = fp;
  e.query = "SELECT ?s WHERE { ?s ?p ?o }";
  e.latency_us = latency_us;
  e.rows_out = 1;
  e.intermediate_rows = 2;
  return e;
}

TEST(ObsQueryLogTest, DisabledByDefaultAndThresholdGates) {
  QueryLog log(4);
  EXPECT_FALSE(log.enabled());
  EXPECT_FALSE(log.ShouldRecord(1e9));
  EXPECT_FALSE(log.Record(MakeEntry(1, 1e9)));
  EXPECT_TRUE(log.Entries().empty());

  log.SetThresholdMicros(1000);
  EXPECT_TRUE(log.enabled());
  EXPECT_FALSE(log.ShouldRecord(999.0));
  EXPECT_TRUE(log.ShouldRecord(1000.0));
  EXPECT_FALSE(log.Record(MakeEntry(2, 10.0)));  // below threshold
  EXPECT_TRUE(log.Record(MakeEntry(3, 2000.0)));
  EXPECT_EQ(log.Entries().size(), 1u);
  EXPECT_EQ(log.total_admitted(), 1u);

  log.SetThresholdMicros(0);  // 0 journals everything
  EXPECT_TRUE(log.ShouldRecord(0.0));
  log.SetThresholdMicros(-1);  // negative disables again
  EXPECT_FALSE(log.ShouldRecord(1e9));
}

TEST(ObsQueryLogTest, RingOverwritesOldestAndKeepsSequence) {
  QueryLog log(3);
  log.SetThresholdMicros(0);
  for (uint64_t i = 1; i <= 5; ++i) {
    EXPECT_TRUE(log.Record(MakeEntry(i, static_cast<double>(i))));
  }
  EXPECT_EQ(log.capacity(), 3u);
  EXPECT_EQ(log.total_admitted(), 5u);
  std::vector<QueryLogEntry> entries = log.Entries();
  ASSERT_EQ(entries.size(), 3u);
  // Oldest first; entries 1 and 2 were overwritten.
  EXPECT_EQ(entries[0].fingerprint, 3u);
  EXPECT_EQ(entries[1].fingerprint, 4u);
  EXPECT_EQ(entries[2].fingerprint, 5u);
  EXPECT_EQ(entries[0].sequence, 3u);
  EXPECT_EQ(entries[2].sequence, 5u);
}

TEST(ObsQueryLogTest, TruncatesOversizedQueryText) {
  QueryLog log(2);
  log.SetThresholdMicros(0);
  QueryLogEntry e = MakeEntry(9, 5.0);
  e.query.assign(QueryLog::kMaxQueryBytes + 100, 'x');
  EXPECT_TRUE(log.Record(std::move(e)));
  EXPECT_EQ(log.Entries()[0].query.size(), QueryLog::kMaxQueryBytes);
}

TEST(ObsQueryLogTest, JsonRoundTripsEntries) {
  QueryLog log(4);
  log.SetThresholdMicros(100);
  QueryLogEntry e = MakeEntry(0xABCDULL, 250.0);
  e.query = "SELECT ?s WHERE { ?s \"weird\\string\" ?o }";
  e.profile.fingerprint = 0xABCDULL;
  e.profile.profiled = true;
  e.profile.root.op = "group";
  ASSERT_TRUE(log.Record(std::move(e)));
  std::string json = log.ToJson();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find("\"threshold_us\":100"), std::string::npos) << json;
  EXPECT_NE(json.find("\"admitted\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"fingerprint\":\"0x000000000000abcd\""),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("weird\\\\string"), std::string::npos) << json;
  EXPECT_NE(json.find("\"profile\":{"), std::string::npos) << json;
}

TEST(ObsConcurrencyTest, QueryLogConcurrentRecordAndRead) {
  QueryLog log(8);
  log.SetThresholdMicros(0);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;
  std::vector<std::thread> threads;
  threads.reserve(kThreads + 1);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&log, t] {
      for (int i = 0; i < kPerThread; ++i) {
        log.Record(MakeEntry(static_cast<uint64_t>(t * kPerThread + i), 1.0));
      }
    });
  }
  threads.emplace_back([&log] {
    for (int i = 0; i < 200; ++i) {
      std::vector<QueryLogEntry> snapshot = log.Entries();
      EXPECT_LE(snapshot.size(), log.capacity());
      std::string json = log.ToJson();
      EXPECT_FALSE(json.empty());
    }
  });
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(log.total_admitted(),
            static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(log.Entries().size(), 8u);
}

}  // namespace
}  // namespace lodviz::obs
