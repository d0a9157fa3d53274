// Self-tests of the benchmark itself: seeded inputs replay exactly, every
// kind of failure lands in fail_frac, and the traced run's span phases keep
// their own allowances.
//
//   cmake --build .bench_build/lodbench --target lodbench_selftest
//   .bench_build/lodbench/lodbench_selftest

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sparql/fingerprint.h"
#include "trace.h"
#include "workloads.h"

namespace lodbench {
namespace {

constexpr Workload kServeWorkloads[] = {Workload::kServeMemViews,
                                        Workload::kServeDiskLookups};

/// The shipped configuration at a size that builds in milliseconds.
WorkloadConfig SmallConfig(Workload w) {
  WorkloadConfig config = ConfigFor(w);
  config.entities = 300;
  return config;
}

std::vector<std::string> Texts(Workload w, uint64_t seed, uint64_t client,
                               size_t steps) {
  ServeStepStream stream(w, SmallConfig(w), seed, client);
  std::vector<std::string> out;
  for (size_t i = 0; i < steps; ++i) {
    for (const Request& r : stream.Next()) out.push_back(r.text);
  }
  return out;
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

/// Digests of the bodies of the first `steps` steps of every client,
/// fetched one at a time from a freshly built dataset and server.
std::vector<uint64_t> BodyDigests(Workload w, uint64_t seed, size_t steps) {
  const WorkloadConfig config = SmallConfig(w);
  auto dataset = Dataset::Build(w, config, seed, TempPath("digests.db"));
  EXPECT_TRUE(dataset.ok()) << dataset.status().ToString();
  if (!dataset.ok()) return {};
  ServeStack stack((*dataset)->source(), config.clients);
  EXPECT_TRUE(stack.Start().ok());
  std::vector<uint64_t> out;
  std::string raw;
  std::string body;
  for (size_t c = 0; c < config.clients; ++c) {
    ServeStepStream stream(w, config, seed, c);
    for (size_t i = 0; i < steps; ++i) {
      for (const Request& r : stream.Next()) {
        EXPECT_TRUE(Fetch(stack.port(), SparqlGetRequest(r.text), &raw));
        EXPECT_EQ(Classify(raw, nullptr, &body), Outcome::kOk) << r.text;
        out.push_back(lodviz::sparql::Fnv1a64(body));
      }
    }
  }
  return out;
}

TEST(Determinism, SameSeedGivesSameRequests) {
  for (Workload w : kServeWorkloads) {
    for (uint64_t client = 0; client < 4; ++client) {
      EXPECT_EQ(Texts(w, 7, client, 50), Texts(w, 7, client, 50))
          << WorkloadName(w);
    }
  }
  ExploreStepStream a(7, 0);
  ExploreStepStream b(7, 0);
  for (int i = 0; i < 50; ++i) {
    const ExploreStep x = a.Next();
    const ExploreStep y = b.Next();
    EXPECT_EQ(x.category, y.category);
    EXPECT_EQ(x.term, y.term);
  }
}

TEST(Determinism, OtherSeedChangesDiskEntities) {
  const std::vector<std::string> a =
      Texts(Workload::kServeDiskLookups, 7, 0, 50);
  const std::vector<std::string> b =
      Texts(Workload::kServeDiskLookups, 8, 0, 50);
  size_t differing = 0;
  for (size_t i = 0; i < a.size(); ++i) differing += a[i] != b[i];
  EXPECT_GT(differing, a.size() / 2);
}

TEST(Determinism, SameSeedGivesSameBodies) {
  for (Workload w : kServeWorkloads) {
    const std::vector<uint64_t> first = BodyDigests(w, 11, 3);
    ASSERT_FALSE(first.empty());
    EXPECT_EQ(first, BodyDigests(w, 11, 3)) << WorkloadName(w);
  }
}

TEST(Determinism, SameSeedGivesSameExploreOutputs) {
  const WorkloadConfig config = SmallConfig(Workload::kExploreSession);
  std::vector<uint64_t> runs[2];
  for (std::vector<uint64_t>& digests : runs) {
    auto dataset = Dataset::Build(Workload::kExploreSession, config, 11, "");
    ASSERT_TRUE(dataset.ok());
    ExploreStepStream stream(11, 0);
    ExploreTimes times;
    for (int i = 0; i < 5; ++i) {
      auto out = RunExploreStep(&(*dataset)->engine(), stream.Next(), &times);
      ASSERT_TRUE(out.ok()) << out.status().ToString();
      digests.insert(digests.end(),
                     {out->facets_digest, out->matching, out->refined_digest,
                      out->hetree_items, out->elements_drawn,
                      out->search_digest});
    }
  }
  EXPECT_EQ(runs[0], runs[1]);
}

/// Runs the closed loop for a moment against a server built with
/// `options`, checking bodies against `reference` when given.
ServeLoad ShortLoad(const lodviz::serve::FrontendOptions& options,
                    const std::unordered_map<std::string, std::string>*
                        reference) {
  const Workload w = Workload::kServeMemViews;
  WorkloadConfig config = SmallConfig(w);
  config.clients = 2;
  auto dataset = Dataset::Build(w, config, 3, "");
  EXPECT_TRUE(dataset.ok());
  ServeStack stack((*dataset)->source(), config.clients, options);
  EXPECT_TRUE(stack.Start().ok());
  LoopOptions loop;
  loop.seconds = 0.05;
  loop.min_steps = 4;
  return RunServeLoad(w, config, 3, stack.port(), loop, reference);
}

std::unordered_map<std::string, std::string> ReferenceFor(
    const lodviz::serve::FrontendOptions& options) {
  const Workload w = Workload::kServeMemViews;
  auto dataset = Dataset::Build(w, SmallConfig(w), 3, "");
  EXPECT_TRUE(dataset.ok());
  lodviz::serve::Frontend frontend((*dataset)->source(), options);
  auto reference = MemViewReference(&frontend);
  EXPECT_TRUE(reference.ok());
  return *reference;
}

TEST(FailureAccounting, CorrectAnswersDoNotFail) {
  const auto reference = ReferenceFor({});
  const ServeLoad load = ShortLoad({}, &reference);
  EXPECT_GT(load.tally.attempted, 0u);
  EXPECT_EQ(load.tally.failed(), 0u);
  EXPECT_EQ(load.tally.fail_frac(), 0.0);
}

TEST(FailureAccounting, ShedIsAFailure) {
  lodviz::serve::FrontendOptions shed_all;
  shed_all.max_concurrent = 0;
  const auto reference = ReferenceFor({});
  const ServeLoad load = ShortLoad(shed_all, &reference);
  EXPECT_GT(load.tally.attempted, 0u);
  EXPECT_EQ(load.tally.shed, load.tally.attempted);
  EXPECT_EQ(load.tally.fail_frac(), 1.0);
}

TEST(FailureAccounting, NonOkIsAFailure) {
  lodviz::serve::FrontendOptions tiny_budget;
  tiny_budget.budget.max_intermediate_rows = 1;  // 504 on every query
  const auto reference = ReferenceFor({});
  const ServeLoad load = ShortLoad(tiny_budget, &reference);
  EXPECT_GT(load.tally.http_errors, 0u);
  EXPECT_EQ(load.tally.fail_frac(),
            static_cast<double>(load.tally.http_errors) /
                static_cast<double>(load.tally.attempted));
}

TEST(FailureAccounting, BodyMismatchIsAFailure) {
  auto reference = ReferenceFor({});
  for (auto& [text, body] : reference) body += " ";
  const ServeLoad load = ShortLoad({}, &reference);
  EXPECT_GT(load.tally.attempted, 0u);
  EXPECT_EQ(load.tally.mismatches, load.tally.attempted);
  EXPECT_EQ(load.tally.fail_frac(), 1.0);
}

TEST(FailureAccounting, DeferredMismatchIsAFailure) {
  const Workload w = Workload::kServeDiskLookups;
  const WorkloadConfig config = SmallConfig(w);
  auto dataset = Dataset::Build(w, config, 5, TempPath("deferred.db"));
  ASSERT_TRUE(dataset.ok());
  ServeLoad load;
  load.digests.assign(config.clients, std::vector<uint64_t>(4, 1));
  load.tally.attempted = config.clients * 4;
  ASSERT_TRUE(
      VerifyDeferred(w, config, 5, (*dataset)->engine().store(), &load).ok());
  EXPECT_EQ(load.tally.mismatches, load.tally.attempted);
  EXPECT_EQ(load.tally.fail_frac(), 1.0);
}

TEST(FailureAccounting, ClassifiesRawResponses) {
  const std::string ok = "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nhi";
  const std::string expected = "hi";
  const std::string wrong = "ho";
  EXPECT_EQ(Classify(ok, &expected, nullptr), Outcome::kOk);
  EXPECT_EQ(Classify(ok, &wrong, nullptr), Outcome::kMismatch);
  EXPECT_EQ(Classify("HTTP/1.1 503 Service Unavailable\r\n\r\n", nullptr,
                     nullptr),
            Outcome::kShed);
  EXPECT_EQ(Classify("HTTP/1.1 400 Bad Request\r\n\r\n", nullptr, nullptr),
            Outcome::kHttpError);
  EXPECT_EQ(Classify("", nullptr, nullptr), Outcome::kTransport);
}

TEST(Tracing, EachPhaseKeepsItsOwnAllowance) {
  Tracer tracer(2);
  tracer.Install();
  for (int i = 0; i < 3; ++i) ScopedSpan span("first");
  EXPECT_EQ(tracer.recorded(), 2u);
  EXPECT_EQ(tracer.dropped(), 1u);
  tracer.StartPhase(2);
  for (int i = 0; i < 2; ++i) ScopedSpan span("second");
  tracer.Uninstall();
  EXPECT_EQ(tracer.recorded(), 4u);
  EXPECT_EQ(tracer.dropped(), 1u);
}

TEST(Tracing, NullNameRecordsNothing) {
  Tracer tracer(8);
  tracer.Install();
  { ScopedSpan span(nullptr); }
  tracer.Uninstall();
  EXPECT_EQ(tracer.recorded(), 0u);
}

TEST(Tracing, SamplerSpreadsTheAllowanceOverThePhase) {
  // 1 s, 1 thread, 4 spans a step, 40 spans: one step per 100 ms.
  SpanSampler sampler(1.0, 1, 4, 40);
  EXPECT_TRUE(sampler.Take());
  EXPECT_FALSE(sampler.Take());
  // An allowance larger than any rate traces every step.
  SpanSampler every(1.0, 1, 1, size_t{1} << 62);
  EXPECT_TRUE(every.Take());
  EXPECT_TRUE(every.Take());
}

}  // namespace
}  // namespace lodbench
